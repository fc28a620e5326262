//! # speakql-metrics
//!
//! The evaluation metrics of paper §6.2: per-class multiset precision and
//! recall (KPR/SPR/LPR/WPR and recall variants), Token Edit Distance, plus
//! empirical CDFs, summary statistics, and the Wilcoxon signed-rank test
//! used for the user-study hypothesis tests.

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod cdf;

pub use accuracy::{accuracy, mean_report, metric_tokens, ted, AccuracyReport, METRIC_NAMES};
pub use cdf::{bootstrap_mean_ci, mean, median, normal_cdf, wilcoxon_signed_rank, Cdf};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A small strategy over plausible SQL-ish token streams.
    fn arb_query() -> impl Strategy<Value = String> {
        let word = prop_oneof![
            Just("SELECT".to_string()),
            Just("FROM".to_string()),
            Just("WHERE".to_string()),
            Just("=".to_string()),
            Just(",".to_string()),
            "[a-z]{1,8}",
            "[0-9]{1,5}",
            "'[a-z]{1,6}'",
        ];
        prop::collection::vec(word, 1..16).prop_map(|ws| ws.join(" "))
    }

    proptest! {
        /// Self-comparison is perfect on every metric.
        #[test]
        fn identity_is_perfect(q in arb_query()) {
            let r = accuracy(&q, &q);
            for m in METRIC_NAMES {
                prop_assert_eq!(r.get(m), Some(1.0), "{}", m);
            }
            prop_assert_eq!(ted(&q, &q), 0);
        }

        /// Precision/recall duality: swapping reference and hypothesis swaps
        /// precision and recall.
        #[test]
        fn precision_recall_duality(a in arb_query(), b in arb_query()) {
            let ab = accuracy(&a, &b);
            let ba = accuracy(&b, &a);
            prop_assert!((ab.wpr - ba.wrr).abs() < 1e-12);
            prop_assert!((ab.wrr - ba.wpr).abs() < 1e-12);
            prop_assert!((ab.kpr - ba.krr).abs() < 1e-12);
            prop_assert!((ab.lrr - ba.lpr).abs() < 1e-12);
        }

        /// TED is symmetric and bounded by the total token count.
        #[test]
        fn ted_symmetric_and_bounded(a in arb_query(), b in arb_query()) {
            let d = ted(&a, &b);
            prop_assert_eq!(d, ted(&b, &a));
            let na = metric_tokens(&a).len();
            let nb = metric_tokens(&b).len();
            prop_assert!(d <= na + nb);
            prop_assert!(d >= na.abs_diff(nb));
        }

        /// All metrics live in [0, 1].
        #[test]
        fn metrics_in_unit_interval(a in arb_query(), b in arb_query()) {
            let r = accuracy(&a, &b);
            for m in METRIC_NAMES {
                let v = r.get(m);
                prop_assert!(v.is_some_and(|v| (0.0..=1.0).contains(&v)), "{} = {:?}", m, v);
            }
        }
    }
}
