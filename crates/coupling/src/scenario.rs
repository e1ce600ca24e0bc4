//! Switching patterns: what each signal wire of the bus does at `t = 0`.
//!
//! Crosstalk depends on the *pattern* of simultaneous transitions:
//!
//! * **victim-quiet** — the victim holds still while every aggressor rises;
//!   the victim waveform is pure coupled noise;
//! * **odd mode** — neighbours switch opposite to the victim; each coupling
//!   capacitor sees twice the swing (Miller factor 2), the slowest case for
//!   capacitively dominated buses;
//! * **even mode** — every wire switches together; the coupling capacitors
//!   carry no current and the victim runs fastest.
//!
//! Arbitrary aggressor vectors are expressed as an explicit list of
//! [`LineDrive`]s, one per signal wire (shield conductors are grounded
//! automatically and take no pattern entry).

use rlckit_circuit::SourceWaveform;
use rlckit_units::{Time, Voltage};

use crate::error::CouplingError;

/// Delay after `t = 0` within which a falling edge completes. Far below any
/// physically meaningful timestep, so a fall behaves as an ideal step while
/// keeping the piece-wise-linear corner times strictly ordered.
const FALL_EPSILON: Time = Time::from_seconds(1e-18);

/// What one signal wire does at `t = 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LineDrive {
    /// Steps from 0 to the supply at `t = 0`.
    #[default]
    Rising,
    /// Starts charged at the supply and steps to 0 at `t = 0`.
    Falling,
    /// Driver holds the wire at 0 through its output resistance.
    Quiet,
    /// Driver holds the wire at the supply through its output resistance.
    QuietHigh,
}

impl LineDrive {
    /// The source waveform implementing this drive for a given supply.
    pub(crate) fn waveform(self, supply: Voltage) -> SourceWaveform {
        match self {
            Self::Rising => SourceWaveform::Step { amplitude: supply, delay: Time::ZERO },
            Self::Falling => SourceWaveform::PieceWiseLinear {
                points: vec![(Time::ZERO, supply), (FALL_EPSILON, Voltage::ZERO)],
            },
            Self::Quiet => SourceWaveform::Dc { level: Voltage::ZERO },
            Self::QuietHigh => SourceWaveform::Dc { level: supply },
        }
    }

    /// Steady-state level the wire settles to, for a given supply.
    pub fn final_level(self, supply: Voltage) -> Voltage {
        match self {
            Self::Rising | Self::QuietHigh => supply,
            Self::Falling | Self::Quiet => Voltage::ZERO,
        }
    }

    /// Returns `true` if this drive transitions at `t = 0`.
    pub fn is_switching(self) -> bool {
        matches!(self, Self::Rising | Self::Falling)
    }
}

/// One [`LineDrive`] per signal wire of a bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchingPattern {
    drives: Vec<LineDrive>,
}

impl SwitchingPattern {
    /// Creates a pattern from an explicit aggressor vector.
    ///
    /// # Errors
    ///
    /// Returns [`CouplingError::InvalidParameter`] for an empty vector.
    pub fn new(drives: Vec<LineDrive>) -> Result<Self, CouplingError> {
        if drives.is_empty() {
            return Err(CouplingError::InvalidParameter {
                what: "switching pattern length",
                value: 0.0,
            });
        }
        Ok(Self { drives })
    }

    /// Every wire rises together (the fast case).
    ///
    /// # Errors
    ///
    /// Returns [`CouplingError::InvalidParameter`] for `lines == 0`.
    pub fn even_mode(lines: usize) -> Result<Self, CouplingError> {
        Self::new(vec![LineDrive::Rising; lines])
    }

    /// The victim rises while every other wire falls (the slow case for
    /// capacitively dominated buses).
    ///
    /// # Errors
    ///
    /// Returns [`CouplingError::InvalidParameter`] for `lines == 0` and
    /// [`CouplingError::LineIndex`] for an out-of-range victim.
    pub fn odd_mode(victim: usize, lines: usize) -> Result<Self, CouplingError> {
        Self::check_victim(victim, lines)?;
        let mut drives = vec![LineDrive::Falling; lines];
        drives[victim] = LineDrive::Rising;
        Self::new(drives)
    }

    /// The victim holds quiet at 0 while every aggressor rises; the victim
    /// waveform is the coupled noise.
    ///
    /// # Errors
    ///
    /// Returns [`CouplingError::InvalidParameter`] for `lines == 0` and
    /// [`CouplingError::LineIndex`] for an out-of-range victim.
    pub fn victim_quiet(victim: usize, lines: usize) -> Result<Self, CouplingError> {
        Self::check_victim(victim, lines)?;
        let mut drives = vec![LineDrive::Rising; lines];
        drives[victim] = LineDrive::Quiet;
        Self::new(drives)
    }

    fn check_victim(victim: usize, lines: usize) -> Result<(), CouplingError> {
        if victim < lines {
            Ok(())
        } else {
            Err(CouplingError::LineIndex { index: victim, lines })
        }
    }

    /// Number of signal wires the pattern covers.
    pub fn lines(&self) -> usize {
        self.drives.len()
    }

    /// Drive of signal wire `i`.
    ///
    /// # Errors
    ///
    /// Returns [`CouplingError::LineIndex`] for an out-of-range wire.
    pub fn drive(&self, i: usize) -> Result<LineDrive, CouplingError> {
        self.drives
            .get(i)
            .copied()
            .ok_or(CouplingError::LineIndex { index: i, lines: self.drives.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_patterns() {
        let even = SwitchingPattern::even_mode(3).unwrap();
        assert_eq!(even.drives, &[LineDrive::Rising; 3]);
        let odd = SwitchingPattern::odd_mode(1, 3).unwrap();
        assert_eq!(odd.drives, &[LineDrive::Falling, LineDrive::Rising, LineDrive::Falling]);
        let quiet = SwitchingPattern::victim_quiet(0, 2).unwrap();
        assert_eq!(quiet.drives, &[LineDrive::Quiet, LineDrive::Rising]);
        assert_eq!(quiet.lines(), 2);
        assert_eq!(quiet.drive(1).unwrap(), LineDrive::Rising);
        assert!(quiet.drive(2).is_err());
        assert!(SwitchingPattern::even_mode(0).is_err());
        assert!(SwitchingPattern::odd_mode(3, 3).is_err());
        assert!(SwitchingPattern::victim_quiet(9, 3).is_err());
        assert!(SwitchingPattern::new(vec![]).is_err());
    }

    #[test]
    fn drive_waveforms_have_the_right_endpoints() {
        let vdd = Voltage::from_volts(1.8);
        let at = |ps: f64| Time::from_picoseconds(ps);
        let rising = LineDrive::Rising.waveform(vdd);
        assert_eq!(rising.value_at(Time::ZERO).volts(), 0.0);
        assert_eq!(rising.value_at(at(1.0)).volts(), 1.8);
        let falling = LineDrive::Falling.waveform(vdd);
        assert_eq!(falling.value_at(Time::ZERO).volts(), 1.8);
        assert_eq!(falling.value_at(at(1.0)).volts(), 0.0);
        assert_eq!(LineDrive::Quiet.waveform(vdd).value_at(at(5.0)).volts(), 0.0);
        assert_eq!(LineDrive::QuietHigh.waveform(vdd).value_at(at(5.0)).volts(), 1.8);
        assert_eq!(LineDrive::Falling.final_level(vdd).volts(), 0.0);
        assert_eq!(LineDrive::QuietHigh.final_level(vdd).volts(), 1.8);
        assert!(LineDrive::Rising.is_switching());
        assert!(!LineDrive::Quiet.is_switching());
    }
}
