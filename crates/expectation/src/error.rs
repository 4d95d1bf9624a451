//! Error type for analytical-layer parameter validation (the §2/§3
//! assumptions every closed form relies on: positive work and rates,
//! non-negative costs).

use std::error::Error;
use std::fmt;

/// Error returned when an analytical quantity is requested with invalid
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpectationError {
    /// A parameter must be strictly positive and finite.
    NonPositiveParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value supplied by the caller.
        value: f64,
    },
    /// A parameter must be non-negative and finite.
    NegativeParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value supplied by the caller.
        value: f64,
    },
    /// A failure rate so small that its reciprocal `1/λ` (the mean time
    /// between failures every closed form is scaled by) overflows `f64`:
    /// any `λ` below `1/f64::MAX ≈ 5.6·10⁻³⁰⁹`, i.e. the subnormal rates.
    RateTooSmall {
        /// Rate supplied by the caller.
        value: f64,
    },
    /// A parameter must be finite.
    NonFiniteParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value supplied by the caller.
        value: f64,
    },
    /// A fraction (e.g. Amdahl's sequential fraction γ) must lie in `[0, 1]`.
    FractionOutOfRange {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value supplied by the caller.
        value: f64,
    },
    /// The processor count must be at least one.
    ZeroProcessors,
    /// At most one storage level may carry a slot bound (the hierarchical
    /// planning DP tracks one slot budget; see [`crate::storage`]).
    MultipleBoundedLevels,
}

impl fmt::Display for ExpectationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpectationError::NonPositiveParameter { name, value } => {
                write!(f, "parameter `{name}` must be strictly positive, got {value}")
            }
            ExpectationError::NegativeParameter { name, value } => {
                write!(f, "parameter `{name}` must be non-negative, got {value}")
            }
            ExpectationError::RateTooSmall { value } => {
                write!(f, "failure rate `lambda` = {value:e} is too small: 1/lambda overflows")
            }
            ExpectationError::NonFiniteParameter { name, value } => {
                write!(f, "parameter `{name}` must be finite, got {value}")
            }
            ExpectationError::FractionOutOfRange { name, value } => {
                write!(f, "parameter `{name}` must lie in [0, 1], got {value}")
            }
            ExpectationError::ZeroProcessors => {
                write!(f, "the platform needs at least one processor")
            }
            ExpectationError::MultipleBoundedLevels => {
                write!(f, "at most one storage level may carry a slot bound")
            }
        }
    }
}

impl Error for ExpectationError {}

pub(crate) fn ensure_positive(name: &'static str, value: f64) -> Result<f64, ExpectationError> {
    if !value.is_finite() {
        return Err(ExpectationError::NonFiniteParameter { name, value });
    }
    if value <= 0.0 {
        return Err(ExpectationError::NonPositiveParameter { name, value });
    }
    Ok(value)
}

/// Validates a platform failure rate `λ`: strictly positive, finite, and
/// with a finite reciprocal `1/λ` — the one rate check shared by every
/// closed form, cost table and instance builder of the workspace.
///
/// # Errors
///
/// [`ExpectationError::NonFiniteParameter`] or
/// [`ExpectationError::NonPositiveParameter`] for a non-finite or
/// non-positive `lambda`, and [`ExpectationError::RateTooSmall`] when `1/λ`
/// overflows (every solver would otherwise report an infinite makespan).
///
/// # Example
///
/// ```
/// use ckpt_expectation::{validate_rate, ExpectationError};
///
/// assert_eq!(validate_rate(1e-4), Ok(1e-4));
/// assert_eq!(validate_rate(1e-310), Err(ExpectationError::RateTooSmall { value: 1e-310 }));
/// ```
pub fn validate_rate(lambda: f64) -> Result<f64, ExpectationError> {
    let lambda = ensure_positive("lambda", lambda)?;
    if !(1.0 / lambda).is_finite() {
        return Err(ExpectationError::RateTooSmall { value: lambda });
    }
    Ok(lambda)
}

pub(crate) fn ensure_non_negative(name: &'static str, value: f64) -> Result<f64, ExpectationError> {
    if !value.is_finite() {
        return Err(ExpectationError::NonFiniteParameter { name, value });
    }
    if value < 0.0 {
        return Err(ExpectationError::NegativeParameter { name, value });
    }
    Ok(value)
}

pub(crate) fn ensure_fraction(name: &'static str, value: f64) -> Result<f64, ExpectationError> {
    if !value.is_finite() {
        return Err(ExpectationError::NonFiniteParameter { name, value });
    }
    if !(0.0..=1.0).contains(&value) {
        return Err(ExpectationError::FractionOutOfRange { name, value });
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let err = ExpectationError::NonPositiveParameter { name: "lambda", value: 0.0 };
        assert!(err.to_string().contains("lambda"));
        let err = ExpectationError::FractionOutOfRange { name: "gamma", value: 2.0 };
        assert!(err.to_string().contains("[0, 1]"));
        assert!(ExpectationError::ZeroProcessors.to_string().contains("processor"));
    }

    #[test]
    fn validators_behave() {
        assert!(ensure_positive("x", 1.0).is_ok());
        assert!(ensure_positive("x", 0.0).is_err());
        assert!(ensure_non_negative("x", 0.0).is_ok());
        assert!(ensure_non_negative("x", -1.0).is_err());
        assert!(ensure_fraction("x", 0.5).is_ok());
        assert!(ensure_fraction("x", 1.5).is_err());
        assert!(ensure_fraction("x", f64::NAN).is_err());
        assert_eq!(validate_rate(1e-308), Ok(1e-308));
        for lambda in [5e-309, 1e-310, 1e-320, 5e-324] {
            assert_eq!(
                validate_rate(lambda),
                Err(ExpectationError::RateTooSmall { value: lambda })
            );
        }
        assert!(matches!(
            validate_rate(0.0),
            Err(ExpectationError::NonPositiveParameter { name: "lambda", .. })
        ));
        assert!(matches!(
            validate_rate(f64::NAN),
            Err(ExpectationError::NonFiniteParameter { .. })
        ));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExpectationError>();
    }
}
