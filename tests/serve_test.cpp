#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/defense/input_transform.h"
#include "src/serve/engine.h"
#include "src/serve/loadgen.h"
#include "src/serve/qos.h"
#include "src/tensor/ops.h"
#include "src/util/arena.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace blurnet::serve {
namespace {

nn::LisaCnnConfig small_model_config() {
  nn::LisaCnnConfig config;
  config.conv1_filters = 8;
  config.conv2_filters = 16;
  config.conv3_filters = 32;
  return config;
}

EngineConfig small_engine_config(int replicas = 1) {
  EngineConfig config;
  config.model = small_model_config();
  config.defense = {nn::FilterPlacement::kAfterLayer1, 3, signal::KernelKind::kBox};
  config.replicas = replicas;
  return config;
}

tensor::Tensor random_batch(std::int64_t n, std::uint64_t seed = 5) {
  util::Rng rng(seed);
  return tensor::Tensor::rand_uniform(tensor::Shape::nchw(n, 3, 32, 32), rng);
}

tensor::Tensor single_image(const tensor::Tensor& batch, std::int64_t i) {
  const std::int64_t stride = batch.dim(1) * batch.dim(2) * batch.dim(3);
  tensor::Tensor image(tensor::Shape{batch.dim(1), batch.dim(2), batch.dim(3)});
  std::copy(batch.data() + i * stride, batch.data() + (i + 1) * stride, image.data());
  return image;
}

void expect_bitwise_equal(const Prediction& a, const Prediction& b,
                          const std::string& context) {
  EXPECT_EQ(a.label, b.label) << context;
  ASSERT_EQ(a.logits.size(), b.logits.size()) << context;
  for (std::size_t k = 0; k < a.logits.size(); ++k) {
    EXPECT_EQ(a.logits[k], b.logits[k]) << context << " logit " << k;
  }
}

TEST(Engine, RegistersBaseAndDefendedVariants) {
  const InferenceEngine engine(small_engine_config(2));
  EXPECT_TRUE(engine.has_variant(kBaseVariant));
  EXPECT_TRUE(engine.has_variant(kDefendedVariant));
  EXPECT_FALSE(engine.has_variant("nope"));
  const auto names = engine.variant_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], kBaseVariant);
  EXPECT_EQ(names[1], kDefendedVariant);
  EXPECT_EQ(engine.replica_count(kBaseVariant), 2);
  EXPECT_EQ(engine.replica_count(kDefendedVariant), 2);
}

TEST(Engine, BatchMatchesSingleImageBitwise) {
  const InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(8);
  const auto batched = engine.classify(batch);
  ASSERT_EQ(batched.size(), 8u);
  for (std::int64_t i = 0; i < 8; ++i) {
    const auto single = engine.classify(single_image(batch, i));
    ASSERT_EQ(single.size(), 1u);
    // Bitwise agreement: batching must be purely a throughput decision.
    expect_bitwise_equal(single[0], batched[static_cast<std::size_t>(i)],
                         "image " + std::to_string(i));
  }
}

TEST(Engine, DeterministicForAnyWorkerCount) {
  const InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(6, 7);
  const auto reference = engine.classify(batch, Options{kDefendedVariant});
  for (const int workers : {1, 2, 5, 16}) {
    util::set_parallel_workers(workers);
    const auto result = engine.classify(batch, Options{kDefendedVariant});
    ASSERT_EQ(result.size(), reference.size());
    for (std::size_t i = 0; i < result.size(); ++i) {
      expect_bitwise_equal(result[i], reference[i], "workers " + std::to_string(workers));
    }
  }
  util::reset_parallel_workers();
}

// The parallel_for work floor on the serving path: with 4 pool lanes, a warm
// batch-1 classify of the paper-size model fans nothing out (every region is
// under one floor), a batch-64 classify does, and neither changes a logit.
TEST(Engine, BatchOneForwardDispatchesNoPoolJobs) {
  EngineConfig config;  // paper-size LisaCnn
  config.defense = {nn::FilterPlacement::kAfterLayer1, 5, signal::KernelKind::kBox};
  InferenceEngine engine(config);
  const std::string median3 = "median3";
  engine.register_transform_variant(median3, defense::TransformSpec::median(3));
  const auto one = random_batch(1, 101);
  const auto batch = random_batch(64, 103);
  auto& pool = util::ThreadPool::instance();
  for (const std::string& variant : {std::string(kDefendedVariant),
                                     std::string(kBaseVariant), median3}) {
    const Options options{variant};
    util::set_parallel_workers(1);
    const auto one_serial = engine.classify_logits(one, options);
    const auto batch_serial = engine.classify_logits(batch, options);
    util::set_parallel_workers(4);
    pool.ensure_parallelism(4);
    engine.classify(one, options);  // warm
    const std::int64_t before = pool.jobs_dispatched();
    const auto one_parallel = engine.classify_logits(one, options);
    EXPECT_EQ(pool.jobs_dispatched(), before) << variant;
    const auto batch_parallel = engine.classify_logits(batch, options);
    EXPECT_GE(pool.jobs_dispatched(), before + 1) << variant;
    for (std::int64_t i = 0; i < one_serial.numel(); ++i) {
      ASSERT_EQ(one_serial[i], one_parallel[i]) << variant << " b1 elem " << i;
    }
    for (std::int64_t i = 0; i < batch_serial.numel(); ++i) {
      ASSERT_EQ(batch_serial[i], batch_parallel[i]) << variant << " b64 elem " << i;
    }
  }
  util::reset_parallel_workers();
}

TEST(Engine, ConcurrentClassifySpreadsAcrossReplicas) {
  const InferenceEngine engine(small_engine_config(2));
  const auto batch = random_batch(4, 11);
  const auto reference = engine.classify(batch);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        const auto result = engine.classify(batch);
        for (std::size_t i = 0; i < result.size(); ++i) {
          if (result[i].label != reference[i].label ||
              result[i].logits != reference[i].logits) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  // The router balanced the 41 calls over both base replicas: each served
  // some, and together they served everything.
  const auto stats = engine.stats();
  ASSERT_EQ(stats.variants[0].variant, kBaseVariant);
  ASSERT_EQ(stats.variants[0].replicas.size(), 2u);
  std::int64_t base_images = 0;
  for (const auto& rs : stats.variants[0].replicas) {
    // The first two routed calls always land on different replicas (the
    // round-robin cursor advances past a freshly-picked replica), so both
    // must have served.
    EXPECT_GT(rs.images, 0);
    base_images += rs.images;
  }
  EXPECT_EQ(base_images, 41 * 4);
}

TEST(Engine, SubmitCoalescesAndMatchesClassify) {
  InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(16, 13);
  const auto reference = engine.classify(batch);

  std::vector<std::future<Prediction>> futures;
  for (std::int64_t i = 0; i < 16; ++i) {
    futures.push_back(engine.submit(single_image(batch, i)));
  }
  for (std::int64_t i = 0; i < 16; ++i) {
    expect_bitwise_equal(futures[static_cast<std::size_t>(i)].get(),
                         reference[static_cast<std::size_t>(i)],
                         "queued image " + std::to_string(i));
  }

  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests, 16);
  EXPECT_GE(stats.batches, 1);
  EXPECT_LE(stats.batches, 16);  // at least some coalescing is permitted
  EXPECT_GE(stats.largest_batch, 1);
  EXPECT_GE(stats.images, 16);
}

TEST(Engine, OversizedBatchIsSlicedBitwiseEqual) {
  // classify() bounds each forward pass by max_batch; slicing must not change
  // any per-image result, whether the cap comes from the engine or the call.
  EngineConfig config = small_engine_config();
  config.max_batch = 4;
  const InferenceEngine sliced(config);
  const InferenceEngine whole(small_engine_config());  // max_batch 64
  const auto batch = random_batch(11, 37);
  const auto a = sliced.classify(batch);
  const auto b = whole.classify(batch);
  const auto c = whole.classify(batch, Options{kBaseVariant, /*max_batch=*/3});
  ASSERT_EQ(a.size(), 11u);
  ASSERT_EQ(c.size(), 11u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_bitwise_equal(a[i], b[i], "engine-cap slice, image " + std::to_string(i));
    expect_bitwise_equal(c[i], b[i], "per-call-cap slice, image " + std::to_string(i));
  }
}

TEST(Engine, DefendedVariantUsesFilteredModel) {
  const InferenceEngine engine(small_engine_config());
  ASSERT_TRUE(engine.defense_enabled());
  EXPECT_EQ(engine.variant(kDefendedVariant).config().fixed_filter.kernel, 3);
  EXPECT_EQ(engine.variant(kBaseVariant).config().fixed_filter.kernel, 0);
  EXPECT_EQ(engine.model().config().fixed_filter.kernel, 0);

  // The blur on the first-layer maps must actually change the logits.
  const auto batch = random_batch(2, 17);
  const auto plain = engine.classify(batch);
  const auto defended = engine.classify(batch, Options{kDefendedVariant});
  bool any_difference = false;
  for (std::size_t k = 0; k < plain[0].logits.size(); ++k) {
    if (plain[0].logits[k] != defended[0].logits[k]) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Engine, DisabledDefenseServesBaseWeightsAsDefended) {
  EngineConfig config;
  config.model = small_model_config();
  config.defense = {};  // kNone
  const InferenceEngine engine(config);
  EXPECT_FALSE(engine.defense_enabled());
  // "defended" aliases the base shard: same replicas, no extra weight clones,
  // and stats report a single variant entry.
  EXPECT_TRUE(engine.has_variant(kDefendedVariant));
  EXPECT_EQ(engine.replica_count(kDefendedVariant), engine.replica_count(kBaseVariant));
  EXPECT_EQ(engine.stats().variants.size(), 1u);
  const auto batch = random_batch(2, 19);
  const auto plain = engine.classify(batch);
  const auto defended = engine.classify(batch, Options{kDefendedVariant});
  EXPECT_EQ(plain[0].logits, defended[0].logits);
}

TEST(Engine, SubmitThroughDefendedVariantMatchesClassify) {
  InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(3, 23);
  const auto reference = engine.classify(batch, Options{kDefendedVariant});
  std::vector<std::future<Prediction>> futures;
  for (std::int64_t i = 0; i < 3; ++i) {
    futures.push_back(engine.submit(single_image(batch, i), Options{kDefendedVariant}));
  }
  for (std::int64_t i = 0; i < 3; ++i) {
    expect_bitwise_equal(futures[static_cast<std::size_t>(i)].get(),
                         reference[static_cast<std::size_t>(i)],
                         "queued defended image " + std::to_string(i));
  }
}

// The router satellite: concurrent submit() across replica counts must be
// bitwise-equal to single-replica single-image classification, regardless of
// which replica a request lands on or how batches were coalesced, and the
// per-replica counters must account for every request exactly.
TEST(Engine, ConcurrentSubmitBitwiseEqualAcrossReplicaCounts) {
  const auto batch = random_batch(24, 41);
  const InferenceEngine reference_engine(small_engine_config(1));
  std::vector<Prediction> reference_base, reference_defended;
  for (std::int64_t i = 0; i < 24; ++i) {
    reference_base.push_back(reference_engine.classify(single_image(batch, i))[0]);
    reference_defended.push_back(
        reference_engine.classify(single_image(batch, i), Options{kDefendedVariant})[0]);
  }

  for (const int replicas : {1, 2, 4}) {
    InferenceEngine engine(small_engine_config(replicas));
    std::vector<std::future<Prediction>> base_futures(24), defended_futures(24);
    std::vector<std::thread> producers;
    for (int t = 0; t < 4; ++t) {
      producers.emplace_back([&, t] {
        // Interleave variants so coalescing and routing orders differ between
        // runs — the results must not.
        for (std::int64_t i = t; i < 24; i += 4) {
          base_futures[static_cast<std::size_t>(i)] = engine.submit(single_image(batch, i));
          defended_futures[static_cast<std::size_t>(i)] =
              engine.submit(single_image(batch, i), Options{kDefendedVariant});
        }
      });
    }
    for (auto& producer : producers) producer.join();
    for (std::int64_t i = 0; i < 24; ++i) {
      expect_bitwise_equal(base_futures[static_cast<std::size_t>(i)].get(),
                           reference_base[static_cast<std::size_t>(i)],
                           "replicas " + std::to_string(replicas) + " base image " +
                               std::to_string(i));
      expect_bitwise_equal(defended_futures[static_cast<std::size_t>(i)].get(),
                           reference_defended[static_cast<std::size_t>(i)],
                           "replicas " + std::to_string(replicas) + " defended image " +
                               std::to_string(i));
    }

    // Per-replica stats account for every queued request and sum to totals.
    const auto stats = engine.stats();
    EXPECT_EQ(stats.requests, 48);
    EXPECT_EQ(stats.images, 48);
    std::int64_t replica_requests = 0, replica_images = 0, replica_batches = 0;
    for (const auto& vs : stats.variants) {
      EXPECT_EQ(vs.replicas.size(), static_cast<std::size_t>(replicas));
      std::int64_t variant_requests = 0;
      for (const auto& rs : vs.replicas) {
        replica_requests += rs.requests;
        replica_images += rs.images;
        replica_batches += rs.batches;
        variant_requests += rs.requests;
        EXPECT_LE(rs.largest_batch, stats.largest_batch);
      }
      EXPECT_EQ(variant_requests, 24) << "variant " << vs.variant;
    }
    EXPECT_EQ(replica_requests, stats.requests);
    EXPECT_EQ(replica_images, stats.images);
    EXPECT_EQ(replica_batches, stats.batches);
  }
}

TEST(Engine, RegisterCustomVariantServesTransferredWeights) {
  InferenceEngine engine(small_engine_config());
  nn::LisaCnnConfig blur7 = small_model_config();
  blur7.fixed_filter = {nn::FilterPlacement::kAfterLayer1, 7, signal::KernelKind::kBox};
  engine.register_variant("blur7", blur7, /*replicas=*/2);
  EXPECT_TRUE(engine.has_variant("blur7"));
  EXPECT_EQ(engine.replica_count("blur7"), 2);
  EXPECT_EQ(engine.variant("blur7").config().fixed_filter.kernel, 7);

  // The variant serves the base weights behind the 7x7 filter: identical to a
  // hand-built transfer of the same weights into the same architecture.
  const auto batch = random_batch(3, 43);
  const nn::LisaCnn expected = engine.model().clone_with_config(blur7);
  const auto via_engine = engine.classify(batch, Options{"blur7"});
  const auto expected_logits = expected.logits(batch);
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t k = 0; k < expected_logits.dim(1); ++k) {
      EXPECT_EQ(via_engine[static_cast<std::size_t>(i)].logits[static_cast<std::size_t>(k)],
                expected_logits.at2(i, k));
    }
  }

  // Queued traffic reaches registered variants too.
  auto future = engine.submit(single_image(batch, 0), Options{"blur7"});
  expect_bitwise_equal(future.get(), via_engine[0], "queued blur7");

  EXPECT_THROW(engine.register_variant("blur7", blur7), std::invalid_argument);
  EXPECT_THROW(engine.register_variant("", blur7), std::invalid_argument);
}

TEST(Engine, RegisterModelServesForeignWeights) {
  // A differently-trained (here: differently-initialized) model served as a
  // variant next to the base: replicas clone the *source*, not the base.
  InferenceEngine engine(small_engine_config());
  nn::LisaCnnConfig other_config = small_model_config();
  other_config.init_seed = 99;
  const nn::LisaCnn other(other_config);
  engine.register_model("other", other, /*replicas=*/2);
  EXPECT_TRUE(engine.has_variant("other"));
  EXPECT_EQ(engine.replica_count("other"), 2);

  const auto batch = random_batch(3, 61);
  const auto via_engine = engine.classify(batch, Options{"other"});
  const auto expected = other.logits(batch);
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t k = 0; k < expected.dim(1); ++k) {
      EXPECT_EQ(via_engine[static_cast<std::size_t>(i)].logits[static_cast<std::size_t>(k)],
                expected.at2(i, k));
    }
  }
  // The foreign weights are NOT the base weights.
  EXPECT_NE(via_engine[0].logits, engine.classify(batch)[0].logits);
  // And the shard is not refreshable from the base model.
  EXPECT_THROW(engine.refresh_variant("other"), std::logic_error);
  EXPECT_THROW(engine.register_model("other", other), std::invalid_argument);
}

TEST(Engine, AliasVariantSharesShardWithoutNewReplicas) {
  InferenceEngine engine(small_engine_config(2));
  engine.alias_variant("canary", kBaseVariant);
  EXPECT_TRUE(engine.has_variant("canary"));
  EXPECT_EQ(engine.replica_count("canary"), 2);
  // Same shard: traffic through either name lands on the same counters, and
  // stats() reports one variant entry per shard (no duplicate for aliases).
  const auto batch = random_batch(3, 59);
  const auto via_alias = engine.classify(batch, Options{"canary"});
  EXPECT_EQ(via_alias[0].logits, engine.classify(batch)[0].logits);
  EXPECT_EQ(engine.images_served("canary"), engine.images_served(kBaseVariant));
  EXPECT_EQ(engine.stats().variants.size(), 2u);  // base + defended shards only
  EXPECT_THROW(engine.alias_variant("canary", kBaseVariant), std::invalid_argument);
  EXPECT_THROW(engine.alias_variant("x", "no-such-variant"), std::invalid_argument);
  EXPECT_THROW(engine.alias_variant("", kBaseVariant), std::invalid_argument);
}

TEST(Engine, ReplicaModelExposesBitwiseIdenticalClones) {
  InferenceEngine engine(small_engine_config(3));
  const auto batch = random_batch(2, 67);
  const auto reference = engine.model().logits(batch);
  for (int r = 0; r < 3; ++r) {
    const nn::LisaCnn& replica = engine.replica_model(kBaseVariant, r);
    const auto logits = replica.logits(batch);
    for (std::int64_t i = 0; i < logits.numel(); ++i) {
      ASSERT_EQ(logits[i], reference[i]) << "replica " << r;
    }
    // Distinct replicas own distinct parameter storage (no shared autograd
    // state between fan-out slots).
    if (r > 0) {
      EXPECT_FALSE(replica.parameters()[0].value().shares_storage_with(
          engine.replica_model(kBaseVariant, 0).parameters()[0].value()));
    }
  }
  EXPECT_THROW(engine.replica_model(kBaseVariant, 3), std::invalid_argument);
  EXPECT_THROW(engine.replica_model(kBaseVariant, -1), std::invalid_argument);
}

TEST(Engine, ClassifyLogitsMatchesClassify) {
  const InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(5, 71);
  const auto predictions = engine.classify(batch, Options{kDefendedVariant});
  const auto logits = engine.classify_logits(batch, Options{kDefendedVariant});
  ASSERT_EQ(logits.dim(0), 5);
  ASSERT_EQ(logits.dim(1), 18);
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t k = 0; k < 18; ++k) {
      EXPECT_EQ(logits.at2(i, k),
                predictions[static_cast<std::size_t>(i)].logits[static_cast<std::size_t>(k)]);
    }
  }
}

TEST(Engine, VariantStatsSnapshotCountsServedImages) {
  const InferenceEngine engine(small_engine_config(2));
  EXPECT_EQ(engine.images_served(kBaseVariant), 0);
  engine.classify(random_batch(7, 73));
  engine.classify(random_batch(2, 73), Options{kDefendedVariant});
  const auto base_stats = engine.variant_stats(kBaseVariant);
  EXPECT_EQ(base_stats.variant, kBaseVariant);
  ASSERT_EQ(base_stats.replicas.size(), 2u);
  std::int64_t total = 0;
  for (const auto& rs : base_stats.replicas) total += rs.images;
  EXPECT_EQ(total, 7);
  EXPECT_EQ(engine.images_served(kBaseVariant), 7);
  EXPECT_EQ(engine.images_served(kDefendedVariant), 2);
  EXPECT_THROW(engine.variant_stats("nope"), std::invalid_argument);
}

TEST(Engine, RefreshVariantPicksUpRetrainedBaseWeights) {
  InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(2, 47);
  const auto before = engine.classify(batch);

  // "Retrain" the adopted base model: the engine shares its parameter
  // handles, but the serving replicas hold deep clones — they must not move
  // until refresh_variant() re-transfers the weights.
  auto params = engine.model().parameters();
  params[0].mutable_value() = tensor::mul_scalar(params[0].value(), 0.5f);
  const auto stale = engine.classify(batch);
  EXPECT_EQ(stale[0].logits, before[0].logits);

  engine.refresh_variant(kBaseVariant);
  engine.refresh_variant(kDefendedVariant);
  const auto refreshed = engine.classify(batch);
  EXPECT_NE(refreshed[0].logits, before[0].logits);
  // And the refreshed replicas serve exactly the mutated weights.
  const auto expected = engine.model().logits(batch);
  for (std::int64_t k = 0; k < expected.dim(1); ++k) {
    EXPECT_EQ(refreshed[0].logits[static_cast<std::size_t>(k)], expected.at2(0, k));
  }
}

TEST(Engine, UnknownVariantThrowsDescriptively) {
  const InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(1, 53);
  try {
    engine.classify(batch, Options{"no-such-variant"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-variant"), std::string::npos) << message;
    EXPECT_NE(message.find("base"), std::string::npos) << message;
  }
}

TEST(Engine, RejectsMalformedInputsWithDescriptiveErrors) {
  InferenceEngine engine(small_engine_config());
  const auto check = [](const auto& fn, const std::string& fragment) {
    try {
      fn();
      FAIL() << "expected std::invalid_argument mentioning \"" << fragment << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    }
  };
  // Wrong rank: neither CHW nor NCHW.
  check([&] { engine.classify(tensor::Tensor::zeros(tensor::Shape::mat(4, 4))); }, "rank");
  // Wrong channel count.
  check([&] { engine.classify(tensor::Tensor::zeros(tensor::Shape::nchw(1, 4, 32, 32))); },
        "channels");
  // Wrong spatial dims.
  check([&] { engine.classify(tensor::Tensor::zeros(tensor::Shape::nchw(1, 3, 16, 16))); },
        "spatial");
  // Empty batch.
  check([&] { engine.classify(tensor::Tensor::zeros(tensor::Shape::nchw(0, 3, 32, 32))); },
        "no images");
  // submit() rejects whole batches and bad shapes the same way.
  check([&] { engine.submit(tensor::Tensor::zeros(tensor::Shape::nchw(2, 3, 32, 32))); },
        "single image");
  check([&] { engine.submit(tensor::Tensor::zeros(tensor::Shape::nchw(1, 3, 8, 8))); },
        "spatial");
  // Negative per-call max_batch.
  check([&] { engine.classify(random_batch(1), Options{kBaseVariant, -1}); }, "max_batch");
}

TEST(Engine, ConfigValidationRejectsNonPositiveKnobs) {
  const auto check = [](EngineConfig config, const std::string& fragment) {
    try {
      config.validate();
      FAIL() << "expected std::invalid_argument mentioning \"" << fragment << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    }
    // The constructor runs the same validation before building any model.
    EXPECT_THROW(InferenceEngine{config}, std::invalid_argument);
  };
  EngineConfig bad_batch = small_engine_config();
  bad_batch.max_batch = 0;
  check(bad_batch, "max_batch");
  EngineConfig bad_replicas = small_engine_config();
  bad_replicas.replicas = -2;
  check(bad_replicas, "replicas");
  EXPECT_NO_THROW(small_engine_config().validate());
}

TEST(Engine, TransformVariantRunsPreprocessThenForward) {
  InferenceEngine engine(small_engine_config());
  const auto spec = defense::TransformSpec::median(3);
  engine.register_transform_variant("median3", spec, /*replicas=*/2);
  EXPECT_TRUE(engine.has_variant("median3"));
  EXPECT_EQ(engine.replica_count("median3"), 2);
  ASSERT_NE(engine.variant_transform("median3"), nullptr);
  EXPECT_EQ(engine.variant_transform("median3")->name(), "median3");
  EXPECT_EQ(engine.variant_kind("median3"), "transform-wrapped weight-transfer (median3)");
  EXPECT_EQ(engine.variant_kind(kBaseVariant), "weight-transfer");
  EXPECT_EQ(engine.variant_transform(kBaseVariant), nullptr);

  // The two-stage pipeline equals a hand-run transform followed by the base
  // forward — bitwise, since both run the exact same kernels.
  const auto batch = random_batch(5, 83);
  const defense::InputTransform reference_transform(spec);
  const auto expected = engine.model().logits(reference_transform.apply(batch));
  const auto via_engine = engine.classify(batch, Options{"median3"});
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t k = 0; k < expected.dim(1); ++k) {
      EXPECT_EQ(via_engine[static_cast<std::size_t>(i)].logits[static_cast<std::size_t>(k)],
                expected.at2(i, k));
    }
  }
  // And the transform must actually change the prediction inputs.
  EXPECT_NE(via_engine[0].logits, engine.classify(batch)[0].logits);
  EXPECT_THROW(engine.register_transform_variant("median3", spec), std::invalid_argument);
  EXPECT_THROW(engine.register_transform_variant("bad", defense::TransformSpec::median(2)),
               std::invalid_argument);
}

// The tentpole determinism proof: a transformed variant's per-image results
// are bitwise identical for any replica count, batch split, or queue
// coalescing — the preprocess stage rides inside the replica, so sharding
// stays a pure throughput decision.
TEST(Engine, TransformVariantBitwiseAcrossReplicaCountsAndBatchSplits) {
  const auto spec = defense::TransformSpec::dct_quant(50);
  const auto batch = random_batch(12, 89);

  std::vector<Prediction> reference;
  {
    InferenceEngine engine(small_engine_config(1));
    engine.register_transform_variant("dctq50", spec);
    for (std::int64_t i = 0; i < 12; ++i) {
      reference.push_back(engine.classify(single_image(batch, i), Options{"dctq50"})[0]);
    }
  }

  for (const int replicas : {1, 2, 4}) {
    InferenceEngine engine(small_engine_config(replicas));
    engine.register_transform_variant("dctq50", spec);
    const std::string context = "replicas " + std::to_string(replicas);

    // Whole batch, and a forced 5-image slicing of the same batch.
    const auto whole = engine.classify(batch, Options{"dctq50"});
    const auto sliced = engine.classify(batch, Options{"dctq50", /*max_batch=*/5});
    ASSERT_EQ(whole.size(), 12u);
    for (std::int64_t i = 0; i < 12; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      expect_bitwise_equal(whole[idx], reference[idx],
                           context + " whole-batch image " + std::to_string(i));
      expect_bitwise_equal(sliced[idx], reference[idx],
                           context + " sliced image " + std::to_string(i));
    }

    // The coalescing submit() path from concurrent producers.
    std::vector<std::future<Prediction>> futures(12);
    std::vector<std::thread> producers;
    for (int t = 0; t < 3; ++t) {
      producers.emplace_back([&, t] {
        for (std::int64_t i = t; i < 12; i += 3) {
          futures[static_cast<std::size_t>(i)] =
              engine.submit(single_image(batch, i), Options{"dctq50"});
        }
      });
    }
    for (auto& producer : producers) producer.join();
    for (std::int64_t i = 0; i < 12; ++i) {
      expect_bitwise_equal(futures[static_cast<std::size_t>(i)].get(),
                           reference[static_cast<std::size_t>(i)],
                           context + " queued image " + std::to_string(i));
    }
  }
}

TEST(Engine, NoneTransformVariantIsBitwiseThePlainPath) {
  // A kNone registration attaches no preprocess stage at all, so the variant
  // is structurally a plain weight-transfer shard — the "transform off"
  // anchor the BPDA-off attack equivalence builds on.
  InferenceEngine engine(small_engine_config());
  engine.register_transform_variant("noop", defense::TransformSpec::none());
  EXPECT_EQ(engine.variant_transform("noop"), nullptr);
  EXPECT_EQ(engine.variant_kind("noop"), "weight-transfer");
  const auto batch = random_batch(4, 97);
  const auto plain = engine.classify(batch);
  const auto noop = engine.classify(batch, Options{"noop"});
  for (std::size_t i = 0; i < plain.size(); ++i) {
    expect_bitwise_equal(noop[i], plain[i], "noop image " + std::to_string(i));
  }
  // refresh works: it is an ordinary from-base shard.
  EXPECT_NO_THROW(engine.refresh_variant("noop"));
}

TEST(Engine, TransformModelServesForeignWeightsBehindPreprocess) {
  InferenceEngine engine(small_engine_config());
  nn::LisaCnnConfig other_config = small_model_config();
  other_config.init_seed = 123;
  const nn::LisaCnn other(other_config);
  const auto spec = defense::TransformSpec::squeeze(4);
  engine.register_transform_model("other_sq", other, spec, /*replicas=*/2);
  EXPECT_EQ(engine.variant_kind("other_sq"), "transform-wrapped foreign-model (squeeze4)");

  const auto batch = random_batch(3, 101);
  const defense::InputTransform transform(spec);
  const auto expected = other.logits(transform.apply(batch));
  const auto via_engine = engine.classify(batch, Options{"other_sq"});
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t k = 0; k < expected.dim(1); ++k) {
      EXPECT_EQ(via_engine[static_cast<std::size_t>(i)].logits[static_cast<std::size_t>(k)],
                expected.at2(i, k));
    }
  }
}

TEST(Engine, RefreshVariantErrorsNameTheVariantAndItsKind) {
  InferenceEngine engine(small_engine_config());
  const nn::LisaCnn other(small_model_config());
  engine.register_model("foreign", other);
  engine.register_transform_model("foreign_med", other, defense::TransformSpec::median(3));
  engine.register_transform_variant("base_med", defense::TransformSpec::median(3));

  const auto check = [&](const std::string& name, const std::string& kind) {
    try {
      engine.refresh_variant(name);
      FAIL() << "expected std::logic_error for " << name;
    } catch (const std::logic_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(name), std::string::npos) << message;
      EXPECT_NE(message.find(kind), std::string::npos) << message;
    }
  };
  check("foreign", "foreign-model");
  check("foreign_med", "transform-wrapped foreign-model (median3)");

  // A transform-wrapped *base* variant refreshes fine: weights re-transfer,
  // the preprocess stage is kept.
  const auto batch = random_batch(2, 103);
  const auto before = engine.classify(batch, Options{"base_med"});
  auto params = engine.model().parameters();
  params[0].mutable_value() = tensor::mul_scalar(params[0].value(), 0.5f);
  engine.refresh_variant("base_med");
  const auto refreshed = engine.classify(batch, Options{"base_med"});
  EXPECT_NE(refreshed[0].logits, before[0].logits);
  const defense::InputTransform transform(defense::TransformSpec::median(3));
  const auto expected = engine.model().logits(transform.apply(batch));
  for (std::int64_t k = 0; k < expected.dim(1); ++k) {
    EXPECT_EQ(refreshed[0].logits[static_cast<std::size_t>(k)], expected.at2(0, k));
  }
}

TEST(Engine, ConfidenceIsSoftmaxOfPredictedLabel) {
  const InferenceEngine engine(small_engine_config());
  const auto prediction = engine.classify(random_batch(1, 31))[0];
  EXPECT_GE(prediction.confidence, 1.0f / 18.0f - 1e-6f);  // at least uniform mass
  EXPECT_LE(prediction.confidence, 1.0f);
  EXPECT_EQ(prediction.logits.size(), 18u);
}

// ---- bounded queues & overload policies -------------------------------------

/// Preprocess stage whose apply() blocks until released — the deterministic
/// way to hold a variant's worker mid-batch and fill its bounded queue.
class GateTransform : public defense::InputTransform {
 public:
  GateTransform() : InputTransform(defense::TransformSpec::none(), "gate") {}

  tensor::Tensor apply(const tensor::Tensor& images) const override {
    entered_.fetch_add(1);
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return open_; });
    return images.clone();
  }

  /// Spin until `n` apply() calls have started (i.e. a worker holds a batch).
  void wait_entered(int n) const {
    while (entered_.load() < n) std::this_thread::yield();
  }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  mutable std::atomic<int> entered_{0};
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool open_ = false;
};

TEST(EngineConfig, ValidatesQueueAndOverloadKnobs) {
  EngineConfig config = small_engine_config();
  config.queue_capacity = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_THROW(InferenceEngine{config}, std::invalid_argument);
  config.queue_capacity = -3;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.queue_capacity = 1;
  EXPECT_NO_THROW(config.validate());
}

TEST(Engine, RejectPolicyShedsWhenQueueIsFullAndServesAfterDraining) {
  EngineConfig config = small_engine_config();
  config.queue_capacity = 2;
  InferenceEngine engine(config);
  auto gate = std::make_shared<GateTransform>();
  engine.register_pipeline_variant("gated", gate);

  const auto batch = random_batch(8, 71);
  const Options options{"gated"};
  std::vector<std::future<Prediction>> futures;
  // First submit: its worker takes it and parks inside the gate.
  futures.push_back(engine.submit(single_image(batch, 0), options));
  gate->wait_entered(1);
  // Two more fill the queue to capacity...
  futures.push_back(engine.submit(single_image(batch, 1), options));
  futures.push_back(engine.submit(single_image(batch, 2), options));
  // ...and the next one is shed.
  EXPECT_THROW(engine.submit(single_image(batch, 3), options), OverloadError);

  VariantStats stats = engine.variant_stats("gated");
  EXPECT_EQ(stats.queue_depth, 2);
  EXPECT_EQ(stats.queue_peak, 2);
  EXPECT_EQ(stats.rejected, 1);

  // Release the gate: every admitted request resolves, bitwise equal to the
  // synchronous path, and the drained engine serves new traffic again.
  gate->open();
  const auto expected = engine.classify(batch, options);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_bitwise_equal(futures[i].get(), expected[i], "admitted " + std::to_string(i));
  }
  auto after = engine.submit(single_image(batch, 3), options);
  expect_bitwise_equal(after.get(), expected[3], "post-drain");
  stats = engine.variant_stats("gated");
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.rejected, 1);  // sheds are not forgotten
  EXPECT_EQ(stats.latency.count, 4);  // 3 admitted + 1 post-drain
  EXPECT_GT(stats.latency.p99_us, 0.0);
}

TEST(Engine, SubmitIsBitwiseDeterministicAcrossQueueCapacities) {
  const auto batch = random_batch(12, 79);
  const InferenceEngine reference(small_engine_config());
  const auto expected = reference.classify(batch);

  for (const int capacity : {1, 2, 8, 1024}) {
    for (const int replicas : {1, 3}) {
      EngineConfig config = small_engine_config(replicas);
      config.queue_capacity = capacity;
      InferenceEngine engine(config);
      // A shed is retried, never dropped: on OverloadError wait for the
      // oldest outstanding request, then resubmit the same image, so the
      // comparison covers all 12 images however small the queue. Once every
      // earlier request has resolved the queue is empty, so each image is
      // admitted before `oldest` can pass it.
      std::vector<std::future<Prediction>> futures(static_cast<std::size_t>(batch.dim(0)));
      std::size_t oldest = 0;
      for (std::size_t i = 0; i < futures.size(); ++i) {
        for (;;) {
          try {
            futures[i] = engine.submit(single_image(batch, static_cast<std::int64_t>(i)));
            break;
          } catch (const OverloadError&) {
            ASSERT_LT(oldest, i);
            futures[oldest++].wait();
          }
        }
      }
      for (std::size_t i = 0; i < futures.size(); ++i) {
        expect_bitwise_equal(futures[i].get(), expected[i],
                             "capacity " + std::to_string(capacity) + " replicas " +
                                 std::to_string(replicas) + " image " + std::to_string(i));
      }
    }
  }
}

// ---- completion callbacks ---------------------------------------------------

/// Per-request record of completion calls, shared by a test and its callbacks.
struct CompletionLog {
  explicit CompletionLog(std::size_t n) : calls(n), results(n), errors(n) {}

  InferenceEngine::Completion for_request(std::size_t i) {
    return [this, i](std::exception_ptr error, Prediction prediction) {
      std::lock_guard<std::mutex> lock(mutex);
      ++calls[i];
      errors[i] = std::move(error);
      results[i] = std::move(prediction);
    };
  }

  int total() {
    std::lock_guard<std::mutex> lock(mutex);
    int sum = 0;
    for (const int c : calls) sum += c;
    return sum;
  }

  std::mutex mutex;
  std::vector<int> calls;
  std::vector<Prediction> results;
  std::vector<std::exception_ptr> errors;
};

TEST(Engine, CompletionRunsExactlyOncePerAdmittedRequest) {
  const auto batch = random_batch(12, 101);
  for (const int replicas : {1, 2}) {
    CompletionLog log(static_cast<std::size_t>(batch.dim(0)));
    std::vector<Prediction> expected;
    {
      InferenceEngine engine(small_engine_config(replicas));
      expected = engine.classify(batch, Options{kDefendedVariant});
      for (std::int64_t i = 0; i < batch.dim(0); ++i) {
        engine.submit(single_image(batch, i), Options{kDefendedVariant},
                      log.for_request(static_cast<std::size_t>(i)));
      }
    }  // ~InferenceEngine drains the queue and joins its workers
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const auto context = "replicas " + std::to_string(replicas) + " image " + std::to_string(i);
      EXPECT_EQ(log.calls[i], 1) << context;
      EXPECT_FALSE(log.errors[i]) << context;
      expect_bitwise_equal(log.results[i], expected[i], context);
    }
  }
}

TEST(Engine, CompletionNeverRunsWhenSubmitThrows) {
  CompletionLog log(5);  // outlives the engine and its workers
  {
    EngineConfig config = small_engine_config();
    config.queue_capacity = 1;
    InferenceEngine engine(config);
    auto gate = std::make_shared<GateTransform>();
    engine.register_pipeline_variant("gated", gate);
    const auto batch = random_batch(3, 103);

    engine.submit(single_image(batch, 0), Options{"gated"}, log.for_request(0));
    gate->wait_entered(1);
    engine.submit(single_image(batch, 1), Options{"gated"}, log.for_request(1));  // queue full
    EXPECT_THROW(engine.submit(single_image(batch, 2), Options{"gated"}, log.for_request(2)),
                 OverloadError);
    EXPECT_THROW(engine.submit(single_image(batch, 2), Options{"nope"}, log.for_request(3)),
                 std::invalid_argument);
    EXPECT_THROW(engine.submit(batch, Options{}, log.for_request(4)), std::invalid_argument);
    gate->open();
  }  // ~InferenceEngine drains the queue and joins its workers
  EXPECT_EQ(log.calls, (std::vector<int>{1, 1, 0, 0, 0}));
}

TEST(Engine, DestructionCompletesEveryQueuedRequest) {
  const auto batch = random_batch(6, 107);
  CompletionLog log(static_cast<std::size_t>(batch.dim(0)));
  auto gate = std::make_shared<GateTransform>();
  auto engine = std::make_unique<InferenceEngine>(small_engine_config());
  engine->register_pipeline_variant("gated", gate);
  const auto expected = engine->classify(batch);  // "gated" serves the base weights
  Options options{"gated"};
  options.max_batch = 1;  // the queue drains one request per batch
  for (std::int64_t i = 0; i < batch.dim(0); ++i) {
    engine->submit(single_image(batch, i), options, log.for_request(static_cast<std::size_t>(i)));
  }
  gate->wait_entered(1);  // the worker holds request 0; the rest are queued

  // Destroy the engine while requests are still queued, then let the worker
  // go: the destructor must drain the queue, completing every request.
  std::thread destroyer([&] { engine.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate->open();
  destroyer.join();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(log.calls[i], 1) << "image " << i;
    EXPECT_FALSE(log.errors[i]) << "image " << i;
    expect_bitwise_equal(log.results[i], expected[i], "drained image " + std::to_string(i));
  }
}

TEST(Engine, CompletionMayCallBackIntoTheEngine) {
  // Completions run outside every engine lock: one that reads stats() must
  // neither deadlock nor (in Debug) trip lockdep.
  std::mutex mutex;  // declared first: outlives the engine's workers
  std::condition_variable done;
  std::vector<std::int64_t> seen;
  InferenceEngine engine(small_engine_config(2));
  const auto batch = random_batch(8, 109);
  for (std::int64_t i = 0; i < batch.dim(0); ++i) {
    engine.submit(single_image(batch, i), Options{}, [&](std::exception_ptr, Prediction) {
      const EngineStats stats = engine.stats();
      const VariantStats variant = engine.variant_stats(kBaseVariant);
      std::lock_guard<std::mutex> lock(mutex);
      seen.push_back(std::min(stats.requests, variant.latency.count));
      done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(done.wait_for(lock, std::chrono::seconds(30), [&] {
    return seen.size() == static_cast<std::size_t>(batch.dim(0));
  }));
  // Each completion already finds its own request in stats() and the
  // latency ring.
  for (const std::int64_t observed : seen) EXPECT_GE(observed, 1);
}

// ---- request arena: allocation-free steady state ----------------------------

TEST(Engine, ArenaForwardPathMatchesUnscopedHeapPathBitwise) {
  const InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(6, 83);
  // classify() runs inside an arena frame; calling the model directly on this
  // thread (no frame bound) takes the heap path. The arena must only move
  // bytes, never change arithmetic.
  const auto via_engine = engine.classify(batch);
  const auto expected = engine.variant(kBaseVariant).logits(batch);
  for (std::int64_t i = 0; i < batch.dim(0); ++i) {
    for (std::int64_t k = 0; k < expected.dim(1); ++k) {
      EXPECT_EQ(via_engine[static_cast<std::size_t>(i)].logits[static_cast<std::size_t>(k)],
                expected.at2(i, k));
    }
  }
}

TEST(Engine, SteadyStateClassifyPerformsZeroScratchHeapAllocations) {
  const InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(16, 89);
  // Warm-up: grows the caller thread's arena (and the conv scratch) to the
  // batch's high-water mark.
  for (int i = 0; i < 3; ++i) engine.classify(batch);

  const std::int64_t before = util::scratch_heap_allocations();
  const auto warm = engine.classify(batch);
  const auto again = engine.classify(batch);
  // Zero scratch-layer heap traffic: every tensor and autograd node of the
  // forward chain came out of the warmed arena.
  EXPECT_EQ(util::scratch_heap_allocations(), before);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    expect_bitwise_equal(warm[i], again[i], "warm repeat " + std::to_string(i));
  }
}

TEST(Engine, SteadyStateSubmitForwardPathIsAllocationFree) {
  EngineConfig config = small_engine_config();
  InferenceEngine engine(config);
  const auto batch = random_batch(8, 97);
  std::vector<tensor::Tensor> images;
  for (std::int64_t i = 0; i < batch.dim(0); ++i) images.push_back(single_image(batch, i));
  // max_batch 1 pins every coalesced batch to one image, so the worker
  // arena's high-water mark is timing-independent and warm-up is exact.
  Options options;
  options.max_batch = 1;
  const auto submit_all = [&] {
    std::vector<std::future<Prediction>> futures;
    for (const auto& image : images) futures.push_back(engine.submit(image, options));
    std::vector<Prediction> out;
    for (auto& f : futures) out.push_back(f.get());
    return out;
  };
  // Warm-up: spawns the worker and grows its arena to steady state.
  for (int i = 0; i < 3; ++i) submit_all();

  const std::int64_t before = util::scratch_heap_allocations();
  const auto warm = submit_all();
  // The worker-side forward path is allocation-free; the only scratch-layer
  // heap events are the admission-side image clones (one per request), whose
  // storage must outlive submit() and so cannot live in any frame.
  EXPECT_EQ(util::scratch_heap_allocations(), before + batch.dim(0));
  const auto expected = engine.classify(batch);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    expect_bitwise_equal(warm[i], expected[i], "submit steady " + std::to_string(i));
  }
}

// ---- latency ring -----------------------------------------------------------

TEST(LatencyRing, NearestRankQuantilesOverKnownSamples) {
  LatencyRing ring(256);
  for (int v = 1; v <= 100; ++v) ring.record(static_cast<double>(v));
  const LatencySnapshot snap = ring.snapshot();
  EXPECT_EQ(snap.count, 100);
  EXPECT_EQ(snap.window, 100);
  EXPECT_DOUBLE_EQ(snap.mean_us, 50.5);
  EXPECT_DOUBLE_EQ(snap.p50_us, 50.0);
  EXPECT_DOUBLE_EQ(snap.p99_us, 99.0);
  EXPECT_DOUBLE_EQ(snap.p999_us, 100.0);
  EXPECT_DOUBLE_EQ(snap.max_us, 100.0);
}

TEST(LatencyRing, WindowKeepsTheLatestSamples) {
  LatencyRing ring(10);
  for (int v = 1; v <= 25; ++v) ring.record(static_cast<double>(v));
  const LatencySnapshot snap = ring.snapshot();
  EXPECT_EQ(snap.count, 25);
  EXPECT_EQ(snap.window, 10);
  EXPECT_DOUBLE_EQ(snap.max_us, 25.0);
  // Window is exactly {16..25}.
  EXPECT_DOUBLE_EQ(snap.p50_us, 20.0);
  EXPECT_DOUBLE_EQ(snap.mean_us, 20.5);
}

TEST(LatencyRing, EmptyAndInvalid) {
  EXPECT_THROW(LatencyRing(0), std::invalid_argument);
  LatencyRing ring(4);
  const LatencySnapshot snap = ring.snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.window, 0);
  EXPECT_DOUBLE_EQ(snap.p99_us, 0.0);
  EXPECT_DOUBLE_EQ(latency_quantile({}, 0.5), 0.0);
  EXPECT_THROW(latency_quantile({1.0}, 1.5), std::invalid_argument);
  EXPECT_DOUBLE_EQ(latency_quantile({3.0, 1.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(latency_quantile({3.0, 1.0, 2.0}, 1.0), 3.0);
}

// ---- load generator ---------------------------------------------------------

TEST(LoadGen, ValidatesConfig) {
  InferenceEngine engine(small_engine_config());
  LoadConfig config;
  config.offered_rps = 0.0;
  EXPECT_THROW(LoadGenerator(engine, config), std::invalid_argument);
  config = {};
  config.requests = 0;
  EXPECT_THROW(LoadGenerator(engine, config), std::invalid_argument);
  config = {};
  config.arrival = ArrivalProcess::kOnOff;
  config.on_fraction = 1.5;
  EXPECT_THROW(LoadGenerator(engine, config), std::invalid_argument);
  config.on_fraction = 0.5;
  config.burst_cycle_s = 0.0;
  EXPECT_THROW(LoadGenerator(engine, config), std::invalid_argument);
  config = {};
  config.mix = {{kBaseVariant, 1.0}, {kBaseVariant, 2.0}};
  EXPECT_THROW(LoadGenerator(engine, config), std::invalid_argument);
  config = {};
  config.mix = {{"nope", 1.0}};
  LoadGenerator generator(engine, config);  // builds fine...
  EXPECT_THROW(generator.run(single_image(random_batch(1), 0)),
               std::invalid_argument);  // ...fails fast against this engine
}

TEST(LoadGen, ScheduleIsDeterministicPerSeed) {
  InferenceEngine engine(small_engine_config());
  LoadConfig config;
  config.requests = 200;
  config.seed = 1234;
  config.mix = {{kBaseVariant, 3.0}, {kDefendedVariant, 1.0}};
  const LoadGenerator a(engine, config), b(engine, config);
  // Same seed ⇒ bitwise-identical arrivals and routing.
  ASSERT_EQ(a.arrival_offsets().size(), 200u);
  EXPECT_EQ(a.arrival_offsets(), b.arrival_offsets());
  EXPECT_EQ(a.variant_schedule(), b.variant_schedule());

  config.seed = 1235;
  const LoadGenerator c(engine, config);
  EXPECT_NE(a.arrival_offsets(), c.arrival_offsets());

  // Arrivals are sorted and the mix is honored in rough proportion.
  double previous = 0.0;
  for (const double offset : a.arrival_offsets()) {
    EXPECT_GE(offset, previous);
    previous = offset;
  }
  std::size_t to_base = 0;
  for (const std::size_t m : a.variant_schedule()) {
    if (m == 0) ++to_base;
  }
  EXPECT_GT(to_base, 120u);  // ~150 expected of 200 at weight 3:1
  EXPECT_LT(to_base, 180u);
}

TEST(LoadGen, UniformPacingAndOnOffWindows) {
  InferenceEngine engine(small_engine_config());
  LoadConfig config;
  config.arrival = ArrivalProcess::kUniform;
  config.offered_rps = 50.0;
  config.requests = 10;
  const LoadGenerator uniform(engine, config);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(uniform.arrival_offsets()[i], static_cast<double>(i) / 50.0);
  }

  config.arrival = ArrivalProcess::kOnOff;
  config.offered_rps = 500.0;
  config.requests = 400;
  config.on_fraction = 0.25;
  config.burst_cycle_s = 0.1;
  const LoadGenerator bursty(engine, config);
  const double on_len = 0.25 * 0.1;
  for (const double offset : bursty.arrival_offsets()) {
    const double in_cycle = std::fmod(offset, 0.1);
    // Every arrival lands inside its cycle's on-window.
    EXPECT_LE(in_cycle, on_len + 1e-9) << "offset " << offset;
  }
}

TEST(LoadGen, ReplayAccountsForEveryScheduledRequest) {
  EngineConfig engine_config = small_engine_config();
  InferenceEngine engine(engine_config);
  LoadConfig config;
  config.offered_rps = 2000.0;  // fast: ~25 ms of schedule
  config.requests = 50;
  config.seed = 7;
  config.mix = {{kBaseVariant, 1.0}, {kDefendedVariant, 1.0}};
  LoadGenerator generator(engine, config);
  const LoadReport report = generator.run(single_image(random_batch(1, 41), 0));

  EXPECT_EQ(report.offered, 50);
  EXPECT_EQ(report.served + report.rejected + report.failed, 50);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.rejected, 0);  // default queue capacity is ample
  EXPECT_GT(report.achieved_rps, 0.0);
  EXPECT_GT(report.duration_s, 0.0);
  EXPECT_EQ(report.latency.count, report.served);
  EXPECT_GT(report.latency.p99_us, 0.0);
  EXPECT_GE(report.latency.p99_us, report.latency.p50_us);

  ASSERT_EQ(report.variants.size(), 2u);
  std::int64_t offered_sum = 0, served_sum = 0;
  for (std::size_t m = 0; m < report.variants.size(); ++m) {
    const auto& vs = report.variants[m];
    // Offered counts are exactly the schedule's routing counts.
    std::int64_t scheduled = 0;
    for (const std::size_t idx : generator.variant_schedule()) {
      if (idx == m) ++scheduled;
    }
    EXPECT_EQ(vs.offered, scheduled) << vs.variant;
    EXPECT_EQ(vs.served, vs.offered) << vs.variant;
    offered_sum += vs.offered;
    served_sum += vs.served;
  }
  EXPECT_EQ(offered_sum, 50);
  EXPECT_EQ(served_sum, report.served);

  // Engine-side latency rings saw the same traffic.
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 50);
  EXPECT_EQ(stats.rejected, 0);
}

/// Holds only the first apply() until open(); every later call passes, so a
/// later request can overtake the held one on another replica.
class HoldFirstGate : public defense::InputTransform {
 public:
  HoldFirstGate() : InputTransform(defense::TransformSpec::none(), "hold-first") {}

  tensor::Tensor apply(const tensor::Tensor& images) const override {
    if (calls_.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return open_; });
    }
    return images.clone();
  }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  mutable std::atomic<int> calls_{0};
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool open_ = false;
};

TEST(LoadGen, OvertakingRequestIsTimedAtItsOwnCompletion) {
  // Two replicas: request 0 is held on one while request 1, fired 100 ms
  // later, is served by the other. Request 1 completes first and must be
  // charged its own latency, not request 0's (no head-of-line timing bias).
  InferenceEngine engine(small_engine_config(2));
  auto gate = std::make_shared<HoldFirstGate>();
  engine.register_pipeline_variant("held", gate);
  LoadConfig config;
  config.arrival = ArrivalProcess::kUniform;
  config.offered_rps = 10.0;
  config.requests = 2;
  config.max_batch = 1;  // each request is its own batch
  config.mix = {{"held", 1.0}};
  LoadGenerator generator(engine, config);

  constexpr auto kHold = std::chrono::milliseconds(400);
  std::thread releaser([&] {
    // Release request 0 only well after request 1 has completed.
    while (engine.variant_stats("held").latency.count < 1) std::this_thread::yield();
    std::this_thread::sleep_for(kHold);
    gate->open();
  });
  const LoadReport report = generator.run(single_image(random_batch(1, 113), 0));
  releaser.join();

  ASSERT_EQ(report.served, 2);
  const double hold_us = std::chrono::duration<double, std::micro>(kHold).count();
  EXPECT_GE(report.latency.max_us, hold_us);  // request 0 waited out the hold
  // With two samples the nearest-rank p50 is the smaller one: request 1's.
  EXPECT_LT(report.latency.p50_us, hold_us / 2) << "request 1 was timed at request 0's completion";
}

}  // namespace
}  // namespace blurnet::serve
