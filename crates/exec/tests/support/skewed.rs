//! Random skewed inputs shared by the partition property tests and the
//! optimizer's partition-reuse differential test.

use proptest::prelude::*;

/// Random pairs with planted hubs: a few `y`-values of large `x`-fan-out on
/// top of a uniform background, so degree buckets are non-trivial.
pub fn arb_skewed_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    (
        1u64..4,
        8u64..40,
        proptest::collection::vec((0u64..40, 0u64..12), 1..120),
    )
        .prop_map(|(hubs, fanout, background)| {
            let mut pairs: Vec<(u64, u64)> = Vec::new();
            for h in 0..hubs {
                for j in 0..fanout {
                    // Hub h: `fanout` distinct x values all mapping to y = h.
                    pairs.push((1000 + h * 100 + j, h));
                }
            }
            pairs.extend(background);
            pairs
        })
}
