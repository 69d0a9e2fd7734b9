//! Configuration validation: the error type and the rule tables.
//!
//! Every config type a scenario file can carry declares its data rules
//! once, as a `RULES` table of [`Rule`] rows, and its `validate` walks that
//! table with [`check`]. The same rows generate the rule lists of
//! `docs/FORMATS.md` §1, and the workspace tests take their boundary and
//! non-finite cases from them, so the code, the docs and the tests cannot
//! drift apart. Checks over lists (node indices, fault order, workload
//! segments) stay as code in the `validate` that owns them.
//!
//! Validation returns `Result<(), ConfigError>` so embedding layers
//! (scenario files, scheme specs) can surface bad tuning as data errors
//! instead of panics. Constructors that take an already-validated config by
//! value still panic on invalid input — a bad config reaching a
//! constructor is a programming error — but they do so by unwrapping the
//! same `Result`, keeping a single source of truth for each rule.

use std::ops::{Bound, RangeBounds};

/// A configuration-validation failure, carrying a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }

    /// The failure message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ConfigError {}

/// One row of a config type's rule table.
pub struct Rule<T> {
    /// The field's path in a scenario file, relative to `T`
    /// (`thermal.ambient_c`); `[]` stands for every element of a list.
    pub field: &'static str,
    /// What must hold of the field.
    pub check: Check<T>,
    /// The error when it does not. In an [`Check::AtMost`] row `{max}` and
    /// `{got}` stand for the cap and the value; in a [`Check::Below`] row
    /// `{lo}` and `{hi}` for the two sides.
    pub message: &'static str,
}

/// What a [`Rule`] requires. NaN satisfies no bound.
pub enum Check<T> {
    /// The field is finite.
    Finite(fn(&T) -> f64),
    /// The field lies within the bounds.
    Range(fn(&T) -> f64, (Bound<f64>, Bound<f64>)),
    /// The count is at least the given value.
    AtLeast(fn(&T) -> usize, usize),
    /// The count is at most the cap. Constructors allocate by these counts,
    /// so an unbounded one would abort the process instead of failing.
    AtMost(fn(&T) -> usize, usize),
    /// The field is strictly below a second one, whose path is given.
    Below(fn(&T) -> f64, fn(&T) -> f64, &'static str),
    /// A relation over the field, described in words.
    Holds(fn(&T) -> bool, &'static str),
}

/// `> 0`.
pub const POSITIVE: (Bound<f64>, Bound<f64>) = (Bound::Excluded(0.0), Bound::Unbounded);
/// `≥ 0`.
pub const NON_NEGATIVE: (Bound<f64>, Bound<f64>) = (Bound::Included(0.0), Bound::Unbounded);
/// `[0, 1]`.
pub const UNIT: (Bound<f64>, Bound<f64>) = (Bound::Included(0.0), Bound::Included(1.0));

impl<T> Rule<T> {
    /// True when `value` satisfies the rule.
    pub fn holds(&self, value: &T) -> bool {
        match self.check {
            Check::Finite(get) => get(value).is_finite(),
            Check::Range(get, bounds) => bounds.contains(&get(value)),
            Check::AtLeast(get, min) => get(value) >= min,
            Check::AtMost(get, max) => get(value) <= max,
            Check::Below(lo, hi, _) => lo(value) < hi(value),
            Check::Holds(ok, _) => ok(value),
        }
    }

    /// The error naming how `value` breaks the rule.
    pub fn error(&self, value: &T) -> ConfigError {
        let message = self.message;
        ConfigError::new(match self.check {
            Check::AtMost(get, max) => {
                message.replace("{max}", &max.to_string()).replace("{got}", &get(value).to_string())
            }
            Check::Below(lo, hi, _) => message
                .replace("{lo}", &lo(value).to_string())
                .replace("{hi}", &hi(value).to_string()),
            _ => message.to_string(),
        })
    }
}

/// Checks `value` against `rules` in table order.
///
/// # Errors
/// Returns the first broken rule's error.
pub fn check<T>(rules: &[Rule<T>], value: &T) -> Result<(), ConfigError> {
    rules.iter().find(|rule| !rule.holds(value)).map_or(Ok(()), |rule| Err(rule.error(value)))
}

/// Builds a [`Rule`] row. `rule!(Kind a.b, args…; "message")` names field
/// `a.b` once for both its path and its accessor, making a
/// [`Check`]`::Kind` (`Finite`, `Range`, `AtLeast` or `AtMost`);
/// `rule!(Below a.b < c.d; "message")` relates two fields; and
/// `rule!("path", Holds(|cfg| …, "relation"); "message")` spells out the
/// path and the check.
#[macro_export]
macro_rules! rule {
    (Below $lo:ident $(. $lo_:ident)* < $hi:ident $(. $hi_:ident)*; $message:expr) => {
        $crate::rule!(concat!(stringify!($lo) $(, ".", stringify!($lo_))*),
            Below(|c| c.$lo $(.$lo_)*, |c| c.$hi $(.$hi_)*,
                concat!(stringify!($hi) $(, ".", stringify!($hi_))*)); $message)
    };
    ($kind:ident $f:ident $(. $f_:ident)* $(, $arg:expr)*; $message:expr) => {
        $crate::rule!(concat!(stringify!($f) $(, ".", stringify!($f_))*),
            $kind(|c| c.$f $(.$f_)* as _ $(, $arg)*); $message)
    };
    ($field:expr, $kind:ident($($arg:tt)*); $message:expr) => {
        $crate::config::Rule {
            field: $field,
            check: $crate::config::Check::$kind($($arg)*),
            message: $message,
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Knobs {
        len: usize,
        lo: f64,
        hi: f64,
    }

    const RULES: &[Rule<Knobs>] = &[
        crate::rule!(AtLeast len, 1; "need at least one entry"),
        crate::rule!(AtMost len, 8; "len must be at most {max} (got {got})"),
        crate::rule!(Range lo, NON_NEGATIVE; "lo must be non-negative"),
        crate::rule!(Below lo < hi; "range must be positive ({lo} .. {hi})"),
        crate::rule!(Finite hi; "hi must be finite"),
    ];

    fn first_error(len: usize, lo: f64, hi: f64) -> Result<(), String> {
        check(RULES, &Knobs { len, lo, hi }).map_err(|e| e.to_string())
    }

    #[test]
    fn the_first_broken_row_names_itself() {
        assert_eq!(first_error(8, 0.0, 1.0), Ok(()));
        assert_eq!(first_error(0, -1.0, 1.0), Err("need at least one entry".into()));
        assert_eq!(first_error(9, 0.0, 1.0), Err("len must be at most 8 (got 9)".into()));
        assert_eq!(first_error(1, -1.0, 1.0), Err("lo must be non-negative".into()));
        assert_eq!(first_error(1, f64::NAN, 1.0), Err("lo must be non-negative".into()));
        assert_eq!(first_error(1, 2.0, 1.5), Err("range must be positive (2 .. 1.5)".into()));
        assert_eq!(first_error(1, 2.0, f64::INFINITY), Err("hi must be finite".into()));
    }

    #[test]
    fn rows_name_their_fields() {
        let fields: Vec<&str> = RULES.iter().map(|r| r.field).collect();
        assert_eq!(fields, ["len", "len", "lo", "lo", "hi"]);
        assert!(matches!(RULES[3].check, Check::Below(_, _, "hi")));
    }

    #[test]
    fn displays_message() {
        let e = ConfigError::new("array length must be at least 1");
        assert_eq!(e.to_string(), "array length must be at least 1");
        assert_eq!(e.message(), "array length must be at least 1");
    }
}
