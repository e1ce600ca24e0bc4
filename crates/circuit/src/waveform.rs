//! Sampled waveforms and timing measurements.
//!
//! Transient analysis produces node voltages sampled on a uniform time grid.
//! [`Waveform`] wraps those samples and provides the measurements the paper's
//! experiments need: 50% propagation delay, rise time, overshoot and final
//! value.

use rlckit_units::{Time, Voltage};

use crate::error::CircuitError;

/// A voltage waveform sampled at monotonically increasing times.
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl Waveform {
    /// Creates a waveform from raw samples (times in seconds, values in volts).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Measurement`] if the slices are empty, have
    /// different lengths, or the times are not strictly increasing.
    pub fn from_samples(times: Vec<f64>, values: Vec<f64>) -> Result<Self, CircuitError> {
        if times.is_empty() || times.len() != values.len() {
            return Err(CircuitError::Measurement {
                reason: format!(
                    "times and values must be non-empty and equal length (got {} and {})",
                    times.len(),
                    values.len()
                ),
            });
        }
        if times.windows(2).any(|w| w[1] <= w[0]) {
            return Err(CircuitError::Measurement {
                reason: "sample times must be strictly increasing".to_owned(),
            });
        }
        Ok(Self { times, values })
    }

    /// Sample times in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values in volts.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value at an arbitrary time by linear interpolation.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Measurement`] if `t` lies outside the sampled range.
    pub fn value_at(&self, t: Time) -> Result<Voltage, CircuitError> {
        rlckit_numeric::interp::linear(&self.times, &self.values, t.seconds())
            .map(Voltage::from_volts)
            .map_err(|e| CircuitError::Measurement { reason: e.to_string() })
    }

    /// Largest sample value and the time at which it occurs.
    pub(crate) fn peak(&self) -> (Time, Voltage) {
        let (t, v) = rlckit_numeric::interp::peak(&self.times, &self.values)
            .expect("waveform is never empty");
        (Time::from_seconds(t), Voltage::from_volts(v))
    }

    /// Time of the first upward crossing of `level` volts.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Measurement`] if the waveform never crosses the level.
    pub fn first_crossing(&self, level: f64) -> Result<Time, CircuitError> {
        rlckit_numeric::interp::first_rising_crossing(&self.times, &self.values, level)
            .map(Time::from_seconds)
            .map_err(|e| CircuitError::Measurement { reason: e.to_string() })
    }

    /// 50% propagation delay relative to an input step at `t = 0`.
    ///
    /// This is the paper's delay definition: the time at which the output
    /// first reaches half of `swing` (the input step amplitude).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Measurement`] if the waveform never reaches 50%.
    pub fn delay_50(&self, swing: Voltage) -> Result<Time, CircuitError> {
        self.first_crossing(0.5 * swing.volts())
    }

    /// 10%–90% rise time of the waveform relative to `swing`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Measurement`] if either threshold is never reached.
    pub fn rise_time(&self, swing: Voltage) -> Result<Time, CircuitError> {
        let t10 = self.first_crossing(0.1 * swing.volts())?;
        let t90 = self.first_crossing(0.9 * swing.volts())?;
        Ok(t90 - t10)
    }

    /// Overshoot above the final steady-state value, in per cent of `swing`.
    ///
    /// Returns zero for monotone (overdamped) responses.
    pub fn overshoot_percent(&self, swing: Voltage) -> f64 {
        let (_, peak) = self.peak();
        let excess = peak.volts() - swing.volts();
        if excess <= 0.0 {
            0.0
        } else {
            excess / swing.volts() * 100.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc_like() -> Waveform {
        // 1 - e^{-t} sampled on [0, 10].
        let times: Vec<f64> = (0..=1000).map(|i| i as f64 * 0.01).collect();
        let values: Vec<f64> = times.iter().map(|t| 1.0 - (-t).exp()).collect();
        Waveform::from_samples(times, values).unwrap()
    }

    fn ringing(zeta: f64) -> Waveform {
        // Underdamped second-order step response with damping ratio `zeta`.
        let wd = (1.0 - zeta * zeta).sqrt();
        let times: Vec<f64> = (0..=4000).map(|i| i as f64 * 0.005).collect();
        let values: Vec<f64> = times
            .iter()
            .map(|t| 1.0 - (-zeta * t).exp() * ((wd * t).cos() + zeta / wd * (wd * t).sin()))
            .collect();
        Waveform::from_samples(times, values).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(Waveform::from_samples(vec![], vec![]).is_err());
        assert!(Waveform::from_samples(vec![0.0, 1.0], vec![0.0]).is_err());
        assert!(Waveform::from_samples(vec![0.0, 0.0], vec![0.0, 1.0]).is_err());
        let w = Waveform::from_samples(vec![0.0, 1.0], vec![0.0, 1.0]).unwrap();
        assert_eq!(w.times().len(), 2);
        assert_eq!(w.values().len(), 2);
    }

    #[test]
    fn interpolated_value() {
        let w = Waveform::from_samples(vec![0.0, 1.0], vec![0.0, 2.0]).unwrap();
        let v = w.value_at(Time::from_seconds(0.25)).unwrap();
        assert!((v.volts() - 0.5).abs() < 1e-12);
        assert!(w.value_at(Time::from_seconds(2.0)).is_err());
    }

    #[test]
    fn delay_of_rc_response() {
        let w = rc_like();
        // 50% crossing of 1 - e^{-t} is at t = ln 2.
        let d = w.delay_50(Voltage::from_volts(1.0)).unwrap();
        assert!((d.seconds() - std::f64::consts::LN_2).abs() < 1e-3);
        // Rise time 10% -> 90% is ln(0.9/0.1) = ln 9.
        let rt = w.rise_time(Voltage::from_volts(1.0)).unwrap();
        assert!((rt.seconds() - 9.0f64.ln()).abs() < 1e-3);
        assert_eq!(w.overshoot_percent(Voltage::from_volts(1.0)), 0.0);
        assert!((w.values().last().unwrap() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn ringing_overshoot_and_crossings() {
        let w = ringing(0.05);
        let overshoot = w.overshoot_percent(Voltage::from_volts(1.0));
        // Theoretical overshoot is exp(-πζ/sqrt(1-ζ²)) ≈ 85.4%.
        assert!((overshoot - 85.45).abs() < 1.0, "overshoot = {overshoot}");
        let first = w.first_crossing(0.5).unwrap();
        // For an underdamped response the first 50% crossing is earlier than
        // the RC-like response's ln 2 ... sanity check it is positive and small.
        assert!(first.seconds() > 0.0 && first.seconds() < 2.0);
    }

    #[test]
    fn missing_crossing_is_an_error() {
        let w = Waveform::from_samples(vec![0.0, 1.0], vec![0.0, 0.1]).unwrap();
        assert!(w.first_crossing(0.5).is_err());
        assert!(w.delay_50(Voltage::from_volts(1.0)).is_err());
        assert!(w.rise_time(Voltage::from_volts(1.0)).is_err());
    }

    #[test]
    fn peak_of_monotone_waveform_is_last_sample() {
        let w = rc_like();
        let (t, v) = w.peak();
        assert!((t.seconds() - 10.0).abs() < 1e-9);
        assert_eq!(v.volts(), *w.values().last().unwrap());
    }
}
