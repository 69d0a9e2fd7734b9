//! Configuration validation errors.
//!
//! Controller and window configurations validate with
//! `Result<(), ConfigError>` so embedding layers (scenario files, scheme
//! specs) can surface bad tuning as data errors instead of panics.
//! Constructors that take an already-validated config by value still panic
//! on invalid input — a bad config reaching a constructor is a programming
//! error — but they do so by unwrapping the same `Result`, keeping a single
//! source of truth for each rule.

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

    /// Fails unless the size knob `field` is at most `max`. Constructors
    /// allocate by these sizes, so an unbounded one would abort the process
    /// on allocation instead of failing.
    pub(crate) fn at_most(field: &str, value: usize, max: usize) -> Result<(), Self> {
        if value <= max {
            Ok(())
        } else {
            Err(Self::new(format!("{field} must be at most {max} (got {value})")))
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_most_names_the_field_and_both_sizes() {
        assert_eq!(ConfigError::at_most("l1_len", 8, 8), Ok(()));
        let e = ConfigError::at_most("l1_len", 9, 8).unwrap_err();
        assert_eq!(e.message(), "l1_len must be at most 8 (got 9)");
    }

    #[test]
    fn displays_message() {
        let e = ConfigError::new("array length must be at least 1");
        assert_eq!(e.to_string(), "array length must be at least 1");
        assert_eq!(e.message(), "array length must be at least 1");
    }
}
