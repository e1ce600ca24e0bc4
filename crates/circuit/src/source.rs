//! Independent source waveforms.
//!
//! The paper drives its lines with "a fast rising signal that can be
//! approximated by a step signal"; the [`SourceWaveform::Step`] variant is the
//! workhorse, with ramp, pulse and piece-wise-linear shapes available for
//! studying finite rise times.

use rlckit_units::{Time, Voltage};

use crate::error::{finite, non_negative, CircuitError};

/// Time-dependent value of an independent source.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceWaveform {
    /// A constant value for all time.
    Dc {
        /// The constant level.
        level: Voltage,
    },
    /// An ideal step: 0 before `delay`, `amplitude` afterwards.
    Step {
        /// Final level after the step.
        amplitude: Voltage,
        /// Time at which the step occurs.
        delay: Time,
    },
    /// A saturating ramp: 0 before `delay`, rising linearly to `amplitude`
    /// over `rise_time`, constant afterwards.
    Ramp {
        /// Final level after the ramp completes.
        amplitude: Voltage,
        /// Time at which the ramp starts.
        delay: Time,
        /// Duration of the linear rise.
        rise_time: Time,
    },
    /// A single trapezoidal pulse.
    Pulse {
        /// Level during the pulse.
        amplitude: Voltage,
        /// Time at which the leading edge starts.
        delay: Time,
        /// Leading/trailing edge duration.
        edge_time: Time,
        /// Time the pulse stays at `amplitude` between the edges.
        width: Time,
    },
    /// Piece-wise linear waveform through the given `(time, value)` points.
    ///
    /// Before the first point the value is the first point's value; after the
    /// last point it is the last point's value. Points must be sorted by time.
    PieceWiseLinear {
        /// Corner points of the waveform.
        points: Vec<(Time, Voltage)>,
    },
}

impl SourceWaveform {
    /// A unit step at `t = 0` — the canonical input of the paper.
    pub fn unit_step() -> Self {
        Self::Step { amplitude: Voltage::from_volts(1.0), delay: Time::ZERO }
    }

    /// Value of the waveform at time `t` (volts).
    pub fn value_at(&self, t: Time) -> Voltage {
        let ts = t.seconds();
        match self {
            Self::Dc { level } => *level,
            Self::Step { amplitude, delay } => {
                if ts > delay.seconds() {
                    *amplitude
                } else {
                    Voltage::ZERO
                }
            }
            Self::Ramp { amplitude, delay, rise_time } => {
                let t0 = delay.seconds();
                let tr = rise_time.seconds();
                if ts <= t0 {
                    Voltage::ZERO
                } else if tr <= 0.0 || ts >= t0 + tr {
                    *amplitude
                } else {
                    *amplitude * ((ts - t0) / tr)
                }
            }
            Self::Pulse { amplitude, delay, edge_time, width } => {
                let t0 = delay.seconds();
                let te = edge_time.seconds().max(0.0);
                let tw = width.seconds().max(0.0);
                if ts <= t0 {
                    Voltage::ZERO
                } else if ts < t0 + te {
                    if te > 0.0 {
                        *amplitude * ((ts - t0) / te)
                    } else {
                        *amplitude
                    }
                } else if ts <= t0 + te + tw {
                    *amplitude
                } else if ts < t0 + 2.0 * te + tw {
                    *amplitude * (1.0 - (ts - t0 - te - tw) / te)
                } else {
                    Voltage::ZERO
                }
            }
            Self::PieceWiseLinear { points } => {
                if points.is_empty() {
                    return Voltage::ZERO;
                }
                if ts <= points[0].0.seconds() {
                    return points[0].1;
                }
                if ts >= points[points.len() - 1].0.seconds() {
                    return points[points.len() - 1].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = (w[0].0.seconds(), w[0].1);
                    let (t1, v1) = (w[1].0.seconds(), w[1].1);
                    if ts >= t0 && ts <= t1 {
                        if t1 <= t0 {
                            return v1;
                        }
                        let frac = (ts - t0) / (t1 - t0);
                        return v0.lerp(v1, frac);
                    }
                }
                points[points.len() - 1].1
            }
        }
    }

    /// Validates that every level is finite, every duration is finite and
    /// non-negative, and piece-wise-linear corner times are finite and
    /// non-decreasing.
    ///
    /// Called by [`Circuit::add_voltage_source`](crate::Circuit::add_voltage_source)
    /// and [`Circuit::add_current_source`](crate::Circuit::add_current_source),
    /// so analyses never see NaN or infinite right-hand sides.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] naming the offending parameter.
    pub(crate) fn validate(&self) -> Result<(), CircuitError> {
        match self {
            Self::Dc { level } => finite(level.volts(), "source DC level"),
            Self::Step { amplitude, delay } => {
                finite(amplitude.volts(), "source step amplitude")?;
                finite(delay.seconds(), "source step delay")
            }
            Self::Ramp { amplitude, delay, rise_time } => {
                finite(amplitude.volts(), "source ramp amplitude")?;
                finite(delay.seconds(), "source ramp delay")?;
                non_negative(rise_time.seconds(), "source ramp rise time")
            }
            Self::Pulse { amplitude, delay, edge_time, width } => {
                finite(amplitude.volts(), "source pulse amplitude")?;
                finite(delay.seconds(), "source pulse delay")?;
                non_negative(edge_time.seconds(), "source pulse edge time")?;
                non_negative(width.seconds(), "source pulse width")
            }
            Self::PieceWiseLinear { points } => {
                for (t, v) in points {
                    finite(t.seconds(), "source PWL corner time")?;
                    finite(v.volts(), "source PWL corner value")?;
                }
                if let Some(w) = points.windows(2).find(|w| w[1].0.seconds() < w[0].0.seconds()) {
                    return Err(CircuitError::InvalidValue {
                        what: "source PWL corner times (must be non-decreasing)",
                        value: w[1].0.seconds(),
                    });
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: f64) -> Time {
        Time::from_seconds(ns * 1e-9)
    }

    #[test]
    fn dc_is_constant() {
        let w = SourceWaveform::Dc { level: Voltage::from_volts(2.5) };
        assert_eq!(w.value_at(at(0.0)).volts(), 2.5);
        assert_eq!(w.value_at(at(100.0)).volts(), 2.5);
    }

    #[test]
    fn step_switches_after_delay() {
        let w = SourceWaveform::Step { amplitude: Voltage::from_volts(1.0), delay: at(1.0) };
        assert_eq!(w.value_at(at(0.5)).volts(), 0.0);
        assert_eq!(w.value_at(at(1.0)).volts(), 0.0);
        assert_eq!(w.value_at(at(1.001)).volts(), 1.0);
        let unit = SourceWaveform::unit_step();
        assert_eq!(unit.value_at(Time::from_picoseconds(1.0)).volts(), 1.0);
        assert_eq!(unit.value_at(Time::ZERO).volts(), 0.0);
    }

    #[test]
    fn ramp_rises_linearly() {
        let w = SourceWaveform::Ramp {
            amplitude: Voltage::from_volts(2.0),
            delay: at(1.0),
            rise_time: at(2.0),
        };
        assert_eq!(w.value_at(at(1.0)).volts(), 0.0);
        assert!((w.value_at(at(2.0)).volts() - 1.0).abs() < 1e-12);
        assert_eq!(w.value_at(at(3.0)).volts(), 2.0);
        assert_eq!(w.value_at(at(10.0)).volts(), 2.0);
    }

    #[test]
    fn ramp_with_zero_rise_time_is_a_step() {
        let w = SourceWaveform::Ramp {
            amplitude: Voltage::from_volts(1.0),
            delay: Time::ZERO,
            rise_time: Time::ZERO,
        };
        assert_eq!(w.value_at(at(0.001)).volts(), 1.0);
    }

    #[test]
    fn pulse_shape() {
        let w = SourceWaveform::Pulse {
            amplitude: Voltage::from_volts(1.0),
            delay: at(1.0),
            edge_time: at(1.0),
            width: at(2.0),
        };
        assert_eq!(w.value_at(at(0.5)).volts(), 0.0);
        assert!((w.value_at(at(1.5)).volts() - 0.5).abs() < 1e-12);
        assert_eq!(w.value_at(at(3.0)).volts(), 1.0);
        assert!((w.value_at(at(4.5)).volts() - 0.5).abs() < 1e-12);
        assert_eq!(w.value_at(at(6.0)).volts(), 0.0);
    }

    #[test]
    fn piecewise_linear_interpolates_and_clamps() {
        let w = SourceWaveform::PieceWiseLinear {
            points: vec![
                (at(1.0), Voltage::from_volts(0.0)),
                (at(2.0), Voltage::from_volts(1.0)),
                (at(4.0), Voltage::from_volts(0.5)),
            ],
        };
        assert_eq!(w.value_at(at(0.0)).volts(), 0.0);
        assert!((w.value_at(at(1.5)).volts() - 0.5).abs() < 1e-12);
        assert!((w.value_at(at(3.0)).volts() - 0.75).abs() < 1e-12);
        assert_eq!(w.value_at(at(5.0)).volts(), 0.5);
    }

    #[test]
    fn empty_piecewise_linear_is_zero() {
        let w = SourceWaveform::PieceWiseLinear { points: vec![] };
        assert_eq!(w.value_at(at(1.0)).volts(), 0.0);
    }
}
