//! tDVFS: the temperature-aware, threshold-triggered DVFS daemon (§4.3).
//!
//! The paper's strategy: "not to scale down frequency unless necessary
//! because low frequencies impact application performance". tDVFS therefore:
//!
//! * only scales *down* when the **average** temperature has been
//!   **consistently above** the trigger threshold (51 °C on the paper's
//!   platform) for several window rounds — short-term spikes and jitter are
//!   ignored (Figure 8's marked region);
//! * chooses how far down via the thermal control array: the escalation step
//!   is `max(1, round(c·(T̄ − threshold)))` cells, so a shared `P_p` governs
//!   DVFS aggressiveness exactly as it governs the fan (aggressive arrays
//!   reach low frequencies in fewer escalations — Figure 10's
//!   2.4 GHz → 2.0 GHz jump at `P_p = 25`);
//! * restores the **original** frequency once the average temperature has
//!   been consistently below the threshold (Figure 8: 2.2 → 2.4 GHz direct).
//!
//! Because scaling happens at most once per sustained-excess confirmation,
//! tDVFS makes orders of magnitude fewer frequency transitions than a
//! utilization governor (Table 1: 2–3 vs. 101–139), which the paper notes is
//! "greatly beneficial to the system reliability".

use serde::{Deserialize, Serialize};

use crate::actuator::FreqMhz;
use crate::config::{check, ConfigError, Rule, NON_NEGATIVE};
use crate::control_array::{Policy, ThermalControlArray};
use crate::controller::ControllerConfig;
use crate::rule;

/// The most samples per round and confirmation rounds a [`TdvfsConfig`]
/// may ask for (the paper's are 4 and 8).
pub const MAX_ROUND_LEN: usize = 4_096;

/// tDVFS daemon parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TdvfsConfig {
    /// Trigger threshold in °C (paper: 51 °C).
    pub threshold_c: f64,
    /// Restore hysteresis in °C: restoration requires the average to stay
    /// below `threshold_c − hysteresis_c`.
    pub hysteresis_c: f64,
    /// Number of consecutive window rounds the average must stay above the
    /// threshold before a scale-down (and below it before a restore).
    pub consecutive_rounds: usize,
    /// Samples averaged per round (matches the controller's level-one
    /// window: 4 samples at 4 Hz = 1 round per second).
    pub samples_per_round: usize,
    /// Minimum temperature rise (°C) over the confirmation window for an
    /// escalation while moderately above threshold. tDVFS's job is to
    /// *arrest the rise* with minimal performance cost; once a scale-down
    /// has flattened the temperature it holds the frequency rather than
    /// chasing the threshold through the coarse P-state ladder (which would
    /// overshoot, restore, and thrash — the paper's traces show a stable
    /// plateau instead).
    pub rising_threshold_c: f64,
    /// Excess (°C above threshold) beyond which escalation proceeds even
    /// with a flat temperature — the emergency escape that bounds how high
    /// the plateau may sit.
    pub escalation_margin_c: f64,
    /// Rounds to wait after any emitted frequency change before escalating
    /// again. The heatsink's thermal time constant means a scale-down's
    /// full effect takes tens of seconds to appear; escalating during the
    /// transient overshoots the stable operating point and causes
    /// scale/restore thrash.
    pub settle_rounds: usize,
    /// Shared index geometry (array length, temperature range ⇒ gain `c`).
    pub controller: ControllerConfig,
}

impl Default for TdvfsConfig {
    fn default() -> Self {
        Self {
            threshold_c: 51.0,
            hysteresis_c: 1.0,
            consecutive_rounds: 8,
            samples_per_round: 4,
            rising_threshold_c: 0.25,
            escalation_margin_c: 6.0,
            settle_rounds: 30,
            controller: ControllerConfig::default(),
        }
    }
}

impl TdvfsConfig {
    /// What [`TdvfsConfig::validate`] checks, in order, before the embedded
    /// controller's rules.
    pub const RULES: &'static [Rule<Self>] = &[
        rule!(AtLeast samples_per_round, 1; "need at least one sample per round"),
        rule!(AtLeast consecutive_rounds, 1; "need at least one confirmation round"),
        rule!(AtMost samples_per_round, MAX_ROUND_LEN;
            "samples_per_round must be at most {max} (got {got})"),
        rule!(AtMost consecutive_rounds, MAX_ROUND_LEN;
            "consecutive_rounds must be at most {max} (got {got})"),
        rule!(Range hysteresis_c, NON_NEGATIVE; "hysteresis must be non-negative"),
        rule!(Range escalation_margin_c, NON_NEGATIVE; "escalation margin must be non-negative"),
        rule!(Finite threshold_c; "threshold_c must be finite"),
        rule!(Finite hysteresis_c; "hysteresis_c must be finite"),
        rule!(Finite rising_threshold_c; "rising_threshold_c must be finite"),
        rule!(Finite escalation_margin_c; "escalation_margin_c must be finite"),
    ];

    /// Validates the configuration against [`TdvfsConfig::RULES`], then
    /// the embedded controller tuning. Returns an error so scenario files
    /// carrying a bad tDVFS block are rejected as data errors.
    ///
    /// # Errors
    /// Returns the first broken rule's error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check(Self::RULES, self).and_then(|()| self.controller.validate())
    }
}

/// A frequency-change action requested by tDVFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TdvfsEvent {
    /// Scale down to the given frequency (temperature sustained above
    /// threshold).
    ScaleDown(FreqMhz),
    /// Restore the original (highest) frequency (temperature sustained
    /// below threshold).
    Restore(FreqMhz),
}

impl TdvfsEvent {
    /// The frequency this event requests.
    pub fn frequency_mhz(self) -> FreqMhz {
        match self {
            TdvfsEvent::ScaleDown(f) | TdvfsEvent::Restore(f) => f,
        }
    }
}

/// The tDVFS daemon.
///
/// ```
/// use unitherm_core::control_array::Policy;
/// use unitherm_core::tdvfs::Tdvfs;
///
/// let mut d = Tdvfs::with_defaults(&[2400, 2200, 2000, 1800, 1000], Policy::MODERATE);
/// assert_eq!(d.current_frequency_mhz(), 2400);
/// // Feed 4 Hz samples well above the margin: after the confirmation
/// // rounds the daemon scales down.
/// let mut scaled = false;
/// for _ in 0..40 {
///     if d.observe(58.0).is_some() {
///         scaled = true;
///     }
/// }
/// assert!(scaled);
/// assert!(d.current_frequency_mhz() < 2400);
/// ```
#[derive(Debug, Clone)]
pub struct Tdvfs {
    cfg: TdvfsConfig,
    array: ThermalControlArray<FreqMhz>,
    /// 1-based index into the control array; 1 = original frequency.
    index: usize,
    round_buf: Vec<f64>,
    /// Recent round averages (capacity `consecutive_rounds + 1`), newest
    /// last — used to measure the rise across the confirmation window.
    recent_avgs: std::collections::VecDeque<f64>,
    above_rounds: usize,
    below_rounds: usize,
    /// Rounds elapsed since the last emitted frequency change.
    rounds_since_event: usize,
    scale_downs: u64,
}

impl Tdvfs {
    /// Creates the daemon over a frequency ladder given in descending order
    /// (ascending cooling effectiveness), governed by `policy`.
    pub fn new(frequencies_desc_mhz: &[FreqMhz], policy: Policy, cfg: TdvfsConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let modes = crate::actuator::dvfs_mode_set(frequencies_desc_mhz);
        let array = ThermalControlArray::build(&modes, policy, cfg.controller.array_len);
        Self {
            cfg,
            array,
            index: 1,
            round_buf: Vec::with_capacity(cfg.samples_per_round),
            recent_avgs: std::collections::VecDeque::with_capacity(cfg.consecutive_rounds + 1),
            above_rounds: 0,
            below_rounds: 0,
            rounds_since_event: cfg.settle_rounds, // first action needs no settling
            scale_downs: 0,
        }
    }

    /// Creates the daemon with default parameters (51 °C threshold).
    pub fn with_defaults(frequencies_desc_mhz: &[FreqMhz], policy: Policy) -> Self {
        Self::new(frequencies_desc_mhz, policy, TdvfsConfig::default())
    }

    /// The frequency currently requested by the daemon.
    pub fn current_frequency_mhz(&self) -> FreqMhz {
        self.array.mode_at(self.index)
    }

    /// Number of scale-down events issued.
    pub fn scale_down_count(&self) -> u64 {
        self.scale_downs
    }

    /// Feeds one temperature sample; may emit a frequency-change event when
    /// a round completes.
    pub fn observe(&mut self, temp_c: f64) -> Option<TdvfsEvent> {
        assert!(temp_c.is_finite(), "temperature sample must be finite");
        self.round_buf.push(temp_c);
        if self.round_buf.len() < self.cfg.samples_per_round {
            return None;
        }
        let avg = self.round_buf.iter().sum::<f64>() / self.round_buf.len() as f64;
        self.round_buf.clear();
        self.on_round_average(avg)
    }

    /// Processes one round-average temperature directly (the hybrid
    /// coordinator reuses the fan controller's round averages).
    pub fn on_round_average(&mut self, avg_c: f64) -> Option<TdvfsEvent> {
        // Track the rise across the confirmation window.
        if self.recent_avgs.len() > self.cfg.consecutive_rounds {
            self.recent_avgs.pop_front();
        }
        let rise = self.recent_avgs.front().map(|&oldest| avg_c - oldest);
        self.recent_avgs.push_back(avg_c);
        self.rounds_since_event = self.rounds_since_event.saturating_add(1);

        if avg_c > self.cfg.threshold_c {
            self.above_rounds += 1;
            self.below_rounds = 0;
            if self.above_rounds >= self.cfg.consecutive_rounds {
                self.above_rounds = 0;
                // Escalate when the previous action has had time to settle
                // AND the temperature is still climbing (or has plateaued
                // dangerously far above the threshold).
                let settled = self.rounds_since_event >= self.cfg.settle_rounds;
                let climbing = rise.is_none_or(|r| r >= self.cfg.rising_threshold_c);
                let emergency = avg_c >= self.cfg.threshold_c + self.cfg.escalation_margin_c;
                if settled && (climbing || emergency) {
                    return self.escalate(avg_c);
                }
            }
        } else if avg_c < self.cfg.threshold_c - self.cfg.hysteresis_c {
            self.below_rounds += 1;
            self.above_rounds = 0;
            if self.below_rounds >= self.cfg.consecutive_rounds {
                self.below_rounds = 0;
                return self.restore();
            }
        } else {
            // Inside the hysteresis band: neither confirmation advances.
            self.above_rounds = 0;
            self.below_rounds = 0;
        }
        None
    }

    /// Confirmed sustained excess: advance the index proportionally to the
    /// excess — but always at least to the next *distinct* mode, because a
    /// confirmed trigger means "scale the frequency down", not "nudge an
    /// index inside the current mode's band". Emits an event when the
    /// mapped frequency changes (i.e. always, unless already at `g_N`).
    fn escalate(&mut self, avg_c: f64) -> Option<TdvfsEvent> {
        let before = self.current_frequency_mhz();
        let excess = avg_c - self.cfg.threshold_c;
        let step = ((self.cfg.controller.gain() * excess).round() as i64).max(1);
        let proportional = self.array.clamp_index(self.index as i64 + step);
        let next_distinct = (self.index + 1..=self.array.len())
            .find(|&j| self.array.mode_at(j) != before)
            .unwrap_or(self.index);
        self.index = proportional.max(next_distinct);
        let after = self.current_frequency_mhz();
        if after != before {
            self.scale_downs += 1;
            self.rounds_since_event = 0;
            Some(TdvfsEvent::ScaleDown(after))
        } else {
            None
        }
    }

    /// Confirmed sustained cool-down: jump back to the original frequency.
    fn restore(&mut self) -> Option<TdvfsEvent> {
        if self.index == 1 {
            return None;
        }
        let before = self.current_frequency_mhz();
        self.index = 1;
        let after = self.current_frequency_mhz();
        if after != before {
            self.rounds_since_event = 0;
            Some(TdvfsEvent::Restore(after))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FREQS: [FreqMhz; 5] = [2400, 2200, 2000, 1800, 1000];

    fn daemon(pp: u32) -> Tdvfs {
        Tdvfs::with_defaults(&FREQS, Policy::new(pp).unwrap())
    }

    /// Feeds `rounds` rounds of a constant temperature; returns emitted events.
    fn feed(d: &mut Tdvfs, temp: f64, rounds: usize) -> Vec<TdvfsEvent> {
        let mut out = Vec::new();
        for _ in 0..rounds * d.cfg.samples_per_round {
            if let Some(e) = d.observe(temp) {
                out.push(e);
            }
        }
        out
    }

    #[test]
    fn starts_at_original_frequency() {
        let d = daemon(50);
        assert_eq!(d.current_frequency_mhz(), 2400);
    }

    #[test]
    fn below_threshold_never_scales() {
        let mut d = daemon(50);
        let events = feed(&mut d, 48.0, 100);
        assert!(events.is_empty());
        assert_eq!(d.current_frequency_mhz(), 2400);
    }

    #[test]
    fn sustained_excess_scales_down() {
        // 58 °C is beyond the 6 °C escalation margin: scale-down fires even
        // though the temperature is flat.
        let mut d = daemon(50);
        let events = feed(&mut d, 58.0, 30);
        assert!(!events.is_empty(), "sustained 58 °C must trigger");
        assert!(matches!(events[0], TdvfsEvent::ScaleDown(f) if f < 2400));
        assert!(d.current_frequency_mhz() < 2400);
        assert!(d.scale_down_count() >= 1);
    }

    #[test]
    fn rising_temperature_above_threshold_scales_down() {
        // A climb through the threshold escalates even below the margin.
        let mut d = daemon(50);
        let mut events = Vec::new();
        for round in 0..60 {
            let temp = (48.0 + 0.15 * f64::from(round)).min(55.0);
            events.extend(feed(&mut d, temp, 1));
        }
        assert!(!events.is_empty(), "rising excess must trigger");
        assert!(d.current_frequency_mhz() < 2400);
    }

    #[test]
    fn moderate_plateau_holds_frequency() {
        // Flat at 53 °C — above threshold but inside the margin, not
        // rising: the daemon holds rather than chasing the threshold
        // through the ladder (the paper's plateau behaviour).
        let mut d = daemon(50);
        let events = feed(&mut d, 53.0, 100);
        assert!(events.is_empty(), "{events:?}");
        assert_eq!(d.current_frequency_mhz(), 2400);
    }

    #[test]
    fn needs_consecutive_rounds_not_spikes() {
        let mut d = daemon(50);
        // Alternate one hot round with one cool round: the consecutive
        // counter never reaches 8, so no event (Figure 8's marked region).
        for _ in 0..50 {
            assert!(feed(&mut d, 54.0, 1).is_empty());
            assert!(feed(&mut d, 48.0, 1).is_empty());
        }
        assert_eq!(d.current_frequency_mhz(), 2400);
    }

    #[test]
    fn escalates_deeper_while_still_hot() {
        let mut d = daemon(50);
        // Heat far beyond the margin keeps escalating toward lower
        // frequencies.
        let events = feed(&mut d, 60.0, 120);
        assert!(events.len() >= 2, "{events:?}");
        let freqs: Vec<FreqMhz> = events.iter().map(|e| e.frequency_mhz()).collect();
        assert!(freqs.windows(2).all(|w| w[1] < w[0]), "monotone descent: {freqs:?}");
    }

    #[test]
    fn restores_original_after_sustained_cooling() {
        let mut d = daemon(50);
        let _ = feed(&mut d, 58.0, 40);
        let reduced = d.current_frequency_mhz();
        assert!(reduced < 2400);
        let events = feed(&mut d, 46.0, 20);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0], TdvfsEvent::Restore(2400), "direct jump to original");
        assert_eq!(d.current_frequency_mhz(), 2400);
    }

    #[test]
    fn hysteresis_band_does_not_restore() {
        let mut d = daemon(50);
        let _ = feed(&mut d, 58.0, 40);
        let reduced = d.current_frequency_mhz();
        assert!(reduced < 2400);
        // 50.5 °C is below the 51 °C threshold but inside the 1 °C
        // hysteresis band: no restore.
        let events = feed(&mut d, 50.5, 100);
        assert!(events.is_empty());
        assert_eq!(d.current_frequency_mhz(), reduced);
    }

    #[test]
    fn larger_excess_scales_faster() {
        let mut mild = daemon(50);
        let mut severe = daemon(50);
        let _ = feed(&mut mild, 58.0, 8); // one confirmation at +7 °C
        let _ = feed(&mut severe, 65.0, 8); // one confirmation at +14 °C
        assert!(
            severe.current_frequency_mhz() <= mild.current_frequency_mhz(),
            "severe {} vs mild {}",
            severe.current_frequency_mhz(),
            mild.current_frequency_mhz()
        );
    }

    #[test]
    fn aggressive_policy_reaches_lower_frequency_sooner() {
        let mut agg = daemon(25);
        let mut weak = daemon(75);
        let ea = feed(&mut agg, 58.0, 24);
        let ew = feed(&mut weak, 58.0, 24);
        let fa = agg.current_frequency_mhz();
        let fw = weak.current_frequency_mhz();
        assert!(fa <= fw, "P25 at {fa} MHz vs P75 at {fw} MHz ({ea:?} / {ew:?})");
    }

    #[test]
    fn index_saturates_at_lowest_frequency() {
        let mut d = daemon(25);
        let _ = feed(&mut d, 70.0, 400);
        assert_eq!(d.current_frequency_mhz(), 1000);
        // Further heat produces no more events.
        assert!(feed(&mut d, 70.0, 40).is_empty());
    }

    #[test]
    fn restore_when_already_original_is_silent() {
        let mut d = daemon(50);
        let events = feed(&mut d, 40.0, 50);
        assert!(events.is_empty());
    }

    #[test]
    fn event_frequency_accessor() {
        assert_eq!(TdvfsEvent::ScaleDown(2000).frequency_mhz(), 2000);
        assert_eq!(TdvfsEvent::Restore(2400).frequency_mhz(), 2400);
    }

    #[test]
    fn few_transitions_under_realistic_load() {
        // Table 1's headline: tDVFS makes only a handful of transitions.
        // Simulate 240 rounds (~4 min) where temperature rises above
        // threshold, stabilizes (because DVFS works), then cools at the end.
        let mut d = daemon(50);
        let mut events = Vec::new();
        for round in 0..240 {
            let temp = if round < 30 {
                48.0 + f64::from(round) * 0.35 // warm-up climb past threshold
            } else if round < 54 {
                58.0 // hot plateau beyond the margin: scale-downs
            } else if round < 200 {
                50.4 // stabilized inside hysteresis band
            } else {
                46.0 // cooldown: restore
            };
            events.extend(feed(&mut d, temp, 1));
        }
        let total = events.len();
        assert!(
            (2..=6).contains(&total),
            "expected a handful of transitions, got {total}: {events:?}"
        );
        assert_eq!(d.current_frequency_mhz(), 2400, "restored by the end");
    }

    #[test]
    fn sizes_above_the_cap_are_named_errors() {
        let cfg = TdvfsConfig { samples_per_round: MAX_ROUND_LEN + 1, ..Default::default() };
        assert!(cfg.validate().unwrap_err().message().starts_with("samples_per_round must be"));
        let cfg = TdvfsConfig { consecutive_rounds: 1 << 32, ..Default::default() };
        assert!(cfg.validate().unwrap_err().message().starts_with("consecutive_rounds must be"));
        let controller = ControllerConfig {
            array_len: crate::controller::MAX_ARRAY_LEN + 1,
            ..Default::default()
        };
        let cfg = TdvfsConfig { controller, ..Default::default() };
        assert!(cfg.validate().unwrap_err().message().starts_with("array_len must be"));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_per_round_rejected() {
        let cfg = TdvfsConfig { samples_per_round: 0, ..Default::default() };
        let _ = Tdvfs::new(&FREQS, Policy::MODERATE, cfg);
    }
}
