//! The thermal control array and the `P_p` user policy (paper §3.2.2).
//!
//! A thermal control array holds `N` modes of one control technique in
//! non-descending order of cooling effectiveness: `g_1` is always the least
//! effective mode, `g_N` the most effective, and duplicates are allowed. For
//! a fan the modes are duty cycles (higher = more effective); for DVFS they
//! are frequencies (lower = more effective); for an ACPI-compatible system
//! they are sleep states.
//!
//! The array contents are derived from the user policy `P_p ∈ [P_MIN, P_MAX]
//! = [1, 100]` by Eq. (1) of the paper:
//!
//! ```text
//!   n_p = ⌊ (P_p − P_MIN)(N − 1) / (P_MAX − P_MIN) ⌋ + 1
//! ```
//!
//! Cells `[n_p, N]` (1-based) hold the most effective mode `g_N`; cells
//! `[1, n_p−1]` hold a subset of the physically available modes evenly
//! extracted from the full set. A *small* `P_p` gives a small `n_p`, so most
//! of the array is pinned at `g_N` and a small index increment produces a
//! large cooling increment — aggressive, temperature-oriented control. A
//! *large* `P_p` spreads the physical modes across the array — conservative,
//! cost-oriented control.

use serde::{Deserialize, Serialize};

/// Error for a policy value outside `[P_MIN, P_MAX]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyError {
    /// The rejected value.
    pub value: u32,
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "policy P_p = {} outside [{}, {}]", self.value, Policy::P_MIN, Policy::P_MAX)
    }
}

impl std::error::Error for PolicyError {}

/// The user policy parameter `P_p` (paper §3.2.2): the aggressiveness of
/// temperature control. Small values are temperature-oriented (aggressive
/// cooling, higher cost); large values are cost-oriented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Policy(u32);

impl Policy {
    /// Lower bound of the policy range.
    pub const P_MIN: u32 = 1;
    /// Upper bound of the policy range.
    pub const P_MAX: u32 = 100;

    /// The paper's "aggressive" setting (`P_p = 25`).
    pub const AGGRESSIVE: Policy = Policy(25);
    /// The paper's "moderate" setting (`P_p = 50`).
    pub const MODERATE: Policy = Policy(50);
    /// The paper's "weak" setting (`P_p = 75`).
    pub const WEAK: Policy = Policy(75);

    /// Creates a policy, rejecting out-of-range values.
    pub fn new(pp: u32) -> Result<Self, PolicyError> {
        if (Self::P_MIN..=Self::P_MAX).contains(&pp) {
            Ok(Self(pp))
        } else {
            Err(PolicyError { value: pp })
        }
    }

    /// The raw `P_p` value.
    pub fn value(self) -> u32 {
        self.0
    }

    /// Re-checks the range invariant. Deserialization fills the inner value
    /// directly, so values arriving from scenario files must be validated
    /// before use — `n_p` underflows on `P_p < P_MIN`.
    ///
    /// # Errors
    /// Returns the out-of-range value.
    pub fn validate(self) -> Result<(), PolicyError> {
        Self::new(self.0).map(|_| ())
    }

    /// Eq. (1): the special index `n_p` (1-based) for an array of length `n`.
    pub fn n_p(self, n: usize) -> usize {
        assert!(n >= 1, "array length must be at least 1");
        let num = (self.0 - Self::P_MIN) as usize * (n - 1);
        let den = (Self::P_MAX - Self::P_MIN) as usize;
        num / den + 1
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P_p={}", self.0)
    }
}

/// A filled thermal control array over modes of type `M`.
///
/// `M` is any copyable mode token (a duty-cycle percent, a frequency, a
/// sleep state). The array is immutable once built; changing the policy or
/// the available mode set means building a new array.
///
/// ```
/// use unitherm_core::control_array::{Policy, ThermalControlArray};
///
/// // DVFS frequencies in ascending cooling effectiveness.
/// let freqs = [2400u32, 2200, 2000, 1800, 1000];
/// let aggressive = ThermalControlArray::with_default_len(&freqs, Policy::AGGRESSIVE);
/// // Eq. (1): with P_p = 25 every cell from n_p = 25 on is the most
/// // effective mode — a small index step reaches deep frequencies.
/// assert_eq!(aggressive.n_p(), 25);
/// assert_eq!(aggressive.mode_at(25), 1000);
/// assert_eq!(aggressive.mode_at(1), 2400); // g_1 is always least effective
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalControlArray<M> {
    cells: Vec<M>,
    n_p: usize,
}

impl<M: Copy + PartialEq> ThermalControlArray<M> {
    /// Default array length used throughout the paper's experiments: the fan
    /// is discretized into 100 modes, and DVFS shares the same `N` so one
    /// `P_p` drives both.
    pub const DEFAULT_LEN: usize = 100;

    /// Builds an array of length `n` from `modes` (ascending cooling
    /// effectiveness: `modes[0]` least effective, `modes.last()` most) under
    /// the given policy.
    ///
    /// # Panics
    /// Panics on an empty mode set or `n == 0` — those are configuration
    /// bugs.
    pub fn build(modes: &[M], policy: Policy, n: usize) -> Self {
        assert!(!modes.is_empty(), "mode set must not be empty");
        assert!(n >= 1, "array length must be at least 1");
        let most = *modes.last().expect("non-empty");
        let n_p = policy.n_p(n);

        let mut cells = Vec::with_capacity(n);
        // Cells [1, n_p − 1]: evenly extracted subset of the physical modes
        // (excluding the most-effective one, which owns [n_p, N]). The
        // extraction always starts at modes[0], so g_1 is the least
        // effective mode as §3.2.2 requires.
        let sub_len = n_p - 1;
        if sub_len > 0 {
            let m_sub = modes.len().saturating_sub(1); // extract from modes[0..m_sub]
            for j in 1..=sub_len {
                let phys = if m_sub == 0 {
                    0
                } else {
                    // floor((j−1)·m_sub / sub_len) ∈ [0, m_sub−1]
                    ((j - 1) * m_sub) / sub_len
                };
                cells.push(modes[phys]);
            }
        }
        // Cells [n_p, N]: the most effective mode.
        cells.resize(n, most);

        Self { cells, n_p }
    }

    /// Builds with the default length of 100.
    pub fn with_default_len(modes: &[M], policy: Policy) -> Self {
        Self::build(modes, policy, Self::DEFAULT_LEN)
    }

    /// Array length `N`.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Always false: arrays have at least one cell.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The special index `n_p` (1-based) from Eq. (1).
    pub fn n_p(&self) -> usize {
        self.n_p
    }

    /// The mode at 1-based index `i` (the paper indexes `g_1 … g_N`).
    ///
    /// # Panics
    /// Panics when `i` is 0 or exceeds `N`; callers clamp indices first.
    pub fn mode_at(&self, i: usize) -> M {
        assert!(i >= 1 && i <= self.cells.len(), "index {i} outside [1, {}]", self.cells.len());
        self.cells[i - 1]
    }

    /// The least effective mode (`g_1`).
    pub fn least_effective(&self) -> M {
        self.cells[0]
    }

    /// The most effective mode (`g_N`).
    pub fn most_effective(&self) -> M {
        *self.cells.last().expect("non-empty")
    }

    /// All cells in order (`g_1 …​ g_N`).
    pub fn cells(&self) -> &[M] {
        &self.cells
    }

    /// Clamps a signed 1-based index into `[1, N]`.
    pub fn clamp_index(&self, i: i64) -> usize {
        i.clamp(1, self.cells.len() as i64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Five DVFS modes, ascending effectiveness (descending frequency).
    const FREQS: [u32; 5] = [2400, 2200, 2000, 1800, 1000];

    fn duties() -> Vec<u8> {
        (1..=100).collect()
    }

    #[test]
    fn policy_rejects_out_of_range() {
        assert!(Policy::new(0).is_err());
        assert!(Policy::new(101).is_err());
        assert_eq!(Policy::new(1).unwrap().value(), 1);
        assert_eq!(Policy::new(100).unwrap().value(), 100);
        let err = Policy::new(0).unwrap_err();
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn eq1_matches_hand_computation() {
        // n_p = floor((P_p − 1)(N − 1)/99) + 1 with N = 100.
        assert_eq!(Policy::new(1).unwrap().n_p(100), 1);
        assert_eq!(Policy::new(25).unwrap().n_p(100), 25);
        assert_eq!(Policy::new(50).unwrap().n_p(100), 50);
        assert_eq!(Policy::new(75).unwrap().n_p(100), 75);
        assert_eq!(Policy::new(100).unwrap().n_p(100), 100);
    }

    #[test]
    fn eq1_scales_with_array_length() {
        assert_eq!(Policy::new(50).unwrap().n_p(10), 5); // floor(49·9/99)+1 = 5
        assert_eq!(Policy::new(100).unwrap().n_p(10), 10);
        assert_eq!(Policy::new(1).unwrap().n_p(10), 1);
    }

    #[test]
    fn small_pp_pins_most_of_the_array_at_gn() {
        let arr = ThermalControlArray::with_default_len(&FREQS, Policy::AGGRESSIVE);
        assert_eq!(arr.n_p(), 25);
        // Cells [25, 100] are the most effective mode (1000 MHz).
        for i in 25..=100 {
            assert_eq!(arr.mode_at(i), 1000, "cell {i}");
        }
        // Cell 1 is the least effective mode.
        assert_eq!(arr.mode_at(1), 2400);
    }

    #[test]
    fn large_pp_spreads_modes() {
        let arr = ThermalControlArray::with_default_len(&FREQS, Policy::new(100).unwrap());
        assert_eq!(arr.n_p(), 100);
        assert_eq!(arr.mode_at(1), 2400);
        assert_eq!(arr.mode_at(100), 1000);
        // All five frequencies appear.
        for f in FREQS {
            assert!(arr.cells().contains(&f), "{f} missing");
        }
    }

    #[test]
    fn pp_min_makes_whole_array_most_effective() {
        let arr = ThermalControlArray::with_default_len(&FREQS, Policy::new(1).unwrap());
        assert!(arr.cells().iter().all(|&m| m == 1000));
    }

    #[test]
    fn effectiveness_is_non_descending() {
        // For DVFS "more effective" = lower frequency, so cells must be
        // non-ascending in frequency for every policy.
        for pp in 1..=100 {
            let arr = ThermalControlArray::with_default_len(&FREQS, Policy::new(pp).unwrap());
            assert!(
                arr.cells().windows(2).all(|w| w[0] >= w[1]),
                "P_p={pp}: array not effectiveness-ordered: {:?}",
                arr.cells()
            );
        }
    }

    #[test]
    fn duplicates_allowed_and_expected() {
        let arr = ThermalControlArray::with_default_len(&FREQS, Policy::MODERATE);
        // 49 cells over 4 distinct sub-modes: duplicates must exist.
        let first = arr.cells()[0];
        assert!(arr.cells().iter().filter(|&&m| m == first).count() > 1);
    }

    #[test]
    fn fan_array_lower_index_means_lower_duty() {
        let d = duties();
        let arr = ThermalControlArray::with_default_len(&d, Policy::MODERATE);
        assert_eq!(arr.mode_at(1), 1);
        assert_eq!(arr.mode_at(100), 100);
        assert_eq!(arr.n_p(), 50);
        // Below n_p the duty climbs roughly twice as fast as the index.
        assert!(arr.mode_at(25) > 45, "cell 25 = {}", arr.mode_at(25));
        // At and beyond n_p everything is full speed.
        assert_eq!(arr.mode_at(50), 100);
    }

    #[test]
    fn aggressive_fan_array_climbs_faster() {
        let d = duties();
        let a25 = ThermalControlArray::with_default_len(&d, Policy::AGGRESSIVE);
        let a75 = ThermalControlArray::with_default_len(&d, Policy::WEAK);
        // Same index ⇒ the aggressive array commands at least as much duty.
        for i in 1..=100 {
            assert!(
                a25.mode_at(i) >= a75.mode_at(i),
                "index {i}: P25 duty {} < P75 duty {}",
                a25.mode_at(i),
                a75.mode_at(i)
            );
        }
        // And strictly more in the interior.
        assert!(a25.mode_at(20) > a75.mode_at(20));
    }

    #[test]
    fn max_pwm_cap_via_mode_set() {
        // The paper's Figure 7 caps the fan at 25/50/75 % by constraining
        // the available mode set; the array then tops out at the cap.
        let capped: Vec<u8> = (1..=75).collect();
        let arr = ThermalControlArray::with_default_len(&capped, Policy::MODERATE);
        assert_eq!(arr.most_effective(), 75);
        assert!(arr.cells().iter().all(|&d| d <= 75));
    }

    #[test]
    fn single_mode_set_is_insensitive() {
        // §3.2.2: "An extreme case is that all the values in the array are
        // the same. Herein, the technique ... is not sensitive to
        // temperature changes."
        let arr = ThermalControlArray::with_default_len(&[42u8], Policy::MODERATE);
        assert!(arr.cells().iter().all(|&m| m == 42));
    }

    #[test]
    fn n_can_be_smaller_than_mode_count() {
        // "If the ratio is less than 1, some physical modes will not appear."
        let arr = ThermalControlArray::build(&duties(), Policy::new(100).unwrap(), 10);
        assert_eq!(arr.len(), 10);
        let distinct: std::collections::BTreeSet<u8> = arr.cells().iter().copied().collect();
        assert!(distinct.len() <= 10);
        assert_eq!(arr.least_effective(), 1);
        assert_eq!(arr.most_effective(), 100);
    }

    #[test]
    fn clamp_index_bounds() {
        let arr = ThermalControlArray::with_default_len(&FREQS, Policy::MODERATE);
        assert_eq!(arr.clamp_index(-5), 1);
        assert_eq!(arr.clamp_index(0), 1);
        assert_eq!(arr.clamp_index(42), 42);
        assert_eq!(arr.clamp_index(1000), 100);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_mode_set_panics() {
        let _: ThermalControlArray<u8> =
            ThermalControlArray::with_default_len(&[], Policy::MODERATE);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn mode_at_zero_panics() {
        let arr = ThermalControlArray::with_default_len(&FREQS, Policy::MODERATE);
        let _ = arr.mode_at(0);
    }
}
