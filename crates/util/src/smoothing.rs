//! Exponential smoothing aggregation.
//!
//! Both the linkability assessment on the client (paper §V-A2) and the
//! SimAttack adversary (paper §VII-E) score a query against a set of past
//! queries by (1) computing the cosine similarity with every past query,
//! (2) sorting the similarities, and (3) aggregating them with exponential
//! smoothing so that the most similar past queries dominate the score.
//!
//! This module implements that aggregation once so that the defence and the
//! attack are guaranteed to use the same definition.
//! [`exponential_smoothing`] is that definition. A query shares a term with
//! few of a profile's past queries, so most of the similarities it ranks are
//! exact zeros; [`exponential_smoothing_zero_tail`] takes those as a *count*
//! and returns the same bits without materialising, sorting or folding them
//! (see its documentation for why that is exact).

/// Aggregates a set of similarity scores with exponential smoothing.
///
/// The scores are sorted in **descending** order and folded as
/// `s = alpha * x_i + (1 - alpha) * s` starting from the largest score, which
/// gives the highest weight to the most similar past queries (matching the
/// SimAttack definition: similarities "ranked in ascending order" and folded
/// from the smallest, which is equivalent to this descending fold with the
/// roles of `alpha` swapped; we use the formulation that weights the top
/// similarity by `alpha`).
///
/// Returns a value in `[0, 1]` when all inputs are in `[0, 1]`, and `0.0` for
/// an empty input.
///
/// # Panics
///
/// Panics if `alpha` is outside `(0, 1]`.
///
/// # Example
///
/// ```
/// use cyclosa_util::smoothing::exponential_smoothing;
/// let score = exponential_smoothing(&[0.1, 0.9, 0.3], 0.5);
/// assert!(score > 0.45 && score <= 0.9);
/// ```
pub fn exponential_smoothing(similarities: &[f64], alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
    if similarities.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = similarities
        .iter()
        .copied()
        .filter(|s| s.is_finite())
        .collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite values"));
    // Fold from the *smallest* up so that the largest similarity receives the
    // final (heaviest) alpha weight.
    let mut acc = *sorted.last().expect("non-empty");
    for &s in sorted.iter().rev().skip(1) {
        acc = alpha * s + (1.0 - alpha) * acc;
    }
    acc
}

/// [`exponential_smoothing`] over `similarities` followed by `zeros` exact
/// `0.0`s, without building that padded list: only `similarities` (sorted
/// in place) is ranked and folded.
///
/// For finite `similarities >= 0` the result is **bit-identical** to the
/// padded call. The fold runs from the smallest value up, and
/// `alpha * 0.0 + (1 - alpha) * 0.0 == 0.0`, so a zero tail of any length
/// leaves the accumulator at `+0.0`, exactly where one zero leaves it; the
/// first step above the tail is then the reference's own
/// `alpha * s + (1 - alpha) * 0.0`. Without a tail the fold starts from the
/// smallest similarity, as the reference does. Non-finite values are
/// skipped, as the reference filters them. (A *negative* similarity would
/// rank below the zeros in the padded list and above them here; cosines of
/// non-negative weights have none.)
///
/// Returns `0.0` when no finite similarity is given.
///
/// # Panics
///
/// Panics if `alpha` is outside `(0, 1]`.
///
/// # Example
///
/// ```
/// use cyclosa_util::smoothing::{exponential_smoothing, exponential_smoothing_zero_tail};
/// let padded = exponential_smoothing(&[0.9, 0.0, 0.3, 0.0, 0.0], 0.7);
/// let folded = exponential_smoothing_zero_tail(&mut [0.9, 0.3], 3, 0.7);
/// assert_eq!(padded.to_bits(), folded.to_bits());
/// ```
pub fn exponential_smoothing_zero_tail(similarities: &mut [f64], zeros: usize, alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
    similarities.sort_unstable_by(f64::total_cmp);
    let mut ascending = similarities.iter().copied().filter(|s| s.is_finite());
    let mut acc = if zeros > 0 {
        0.0
    } else {
        match ascending.next() {
            Some(smallest) => smallest,
            None => return 0.0,
        }
    };
    for s in ascending {
        acc = alpha * s + (1.0 - alpha) * acc;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256StarStar};

    #[test]
    fn empty_input_scores_zero() {
        assert_eq!(exponential_smoothing(&[], 0.5), 0.0);
    }

    #[test]
    fn single_value_is_identity() {
        assert!((exponential_smoothing(&[0.7], 0.3) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn top_similarity_dominates() {
        // One perfect match among many poor matches should keep the score
        // high: that is what makes a *single* very similar past query enough
        // for re-identification.
        let mut sims = vec![0.05; 20];
        sims.push(1.0);
        let score = exponential_smoothing(&sims, 0.5);
        assert!(score > 0.5, "score was {score}");
    }

    #[test]
    fn all_low_similarities_stay_low() {
        let sims = vec![0.1; 30];
        let score = exponential_smoothing(&sims, 0.5);
        assert!((score - 0.1).abs() < 1e-9);
    }

    #[test]
    fn order_does_not_matter() {
        let a = exponential_smoothing(&[0.2, 0.9, 0.4, 0.1], 0.5);
        let b = exponential_smoothing(&[0.9, 0.1, 0.2, 0.4], 0.5);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn result_bounded_by_extremes() {
        let sims = [0.15, 0.6, 0.33, 0.92, 0.4];
        let score = exponential_smoothing(&sims, 0.4);
        assert!((0.15..=0.92).contains(&score));
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let score = exponential_smoothing(&[f64::NAN, 0.5, f64::INFINITY], 0.5);
        assert!((score - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_zero_is_rejected() {
        let _ = exponential_smoothing(&[0.5], 0.0);
    }

    /// `exponential_smoothing` on `similarities` padded with `zeros` zeros —
    /// what the zero-tail fold must reproduce bit for bit.
    fn padded(similarities: &[f64], zeros: usize, alpha: f64) -> f64 {
        let mut list = similarities.to_vec();
        list.resize(similarities.len() + zeros, 0.0);
        exponential_smoothing(&list, alpha)
    }

    #[test]
    fn zero_tail_fold_is_bit_identical_to_the_padded_reference() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5300);
        for round in 0..3000 {
            let alpha = [0.3, 0.7, 1.0][round % 3];
            let len = 1 + rng.gen_index(300);
            // No tail at all, one zero, a few, and a tail far longer than
            // the list (the shape SimAttack produces).
            let zeros = [0, 1, rng.gen_index(8), len + rng.gen_index(400)][rng.gen_index(4)];
            // Cosines of short binary queries: few distinct values, so
            // duplicates are the rule. Every other round some of the given
            // values are exact zeros themselves; in the rest nothing is
            // zero unless the tail is.
            let least_shared = round / 3 % 2;
            let mut similarities: Vec<f64> = (0..len)
                .map(|_| {
                    let shared = least_shared + rng.gen_index(4 - least_shared);
                    let (a, b) = (1 + rng.gen_index(5), 1 + rng.gen_index(5));
                    (shared as f64 / ((a as f64).sqrt() * (b as f64).sqrt())).clamp(-1.0, 1.0)
                })
                .collect();
            let reference = padded(&similarities, zeros, alpha);
            let folded = exponential_smoothing_zero_tail(&mut similarities, zeros, alpha);
            assert_eq!(
                reference.to_bits(),
                folded.to_bits(),
                "round {round}: alpha {alpha}, {zeros} zeros, {similarities:?}"
            );
        }
    }

    #[test]
    fn zero_tail_fold_edge_cases_match_the_reference() {
        for alpha in [0.3, 0.7, 1.0] {
            // Nothing but the tail, and nothing at all.
            assert_eq!(
                exponential_smoothing_zero_tail(&mut [], 5, alpha).to_bits(),
                0.0f64.to_bits()
            );
            assert_eq!(
                exponential_smoothing_zero_tail(&mut [], 0, alpha).to_bits(),
                0.0f64.to_bits()
            );
            // A single similarity with and without a tail.
            for zeros in [0, 1, 1000] {
                assert_eq!(
                    exponential_smoothing_zero_tail(&mut [0.25], zeros, alpha).to_bits(),
                    padded(&[0.25], zeros, alpha).to_bits()
                );
            }
            // Non-finite values are skipped, never a panic.
            for zeros in [0, 3] {
                let mut odd = [f64::NAN, 0.5, f64::INFINITY, f64::NEG_INFINITY, 0.1];
                assert_eq!(
                    exponential_smoothing_zero_tail(&mut odd, zeros, alpha).to_bits(),
                    padded(&[0.5, 0.1], zeros, alpha).to_bits()
                );
                assert_eq!(
                    exponential_smoothing_zero_tail(&mut [f64::NAN], zeros, alpha),
                    0.0
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_tail_fold_rejects_alpha_above_one() {
        let _ = exponential_smoothing_zero_tail(&mut [0.5], 2, 1.5);
    }
}
