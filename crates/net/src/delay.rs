//! Message-delivery delay models.

use synergy_des::{DetRng, SimDuration};

/// How long a link takes to deliver one message.
///
/// The TB protocol's blocking periods are derived from the *bounds*
/// `[tmin, tmax]`; the model decides where inside those bounds each delivery
/// lands.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DelayModel {
    /// Every delivery takes exactly this long.
    Fixed(SimDuration),
    /// Deliveries are uniform over `[min, max]`.
    Uniform {
        /// Minimum delivery delay (`tmin`).
        min: SimDuration,
        /// Maximum delivery delay (`tmax`).
        max: SimDuration,
    },
}

impl DelayModel {
    /// A uniform model, validating the bounds.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn uniform(min: SimDuration, max: SimDuration) -> Self {
        assert!(min <= max, "tmin must not exceed tmax");
        DelayModel::Uniform { min, max }
    }

    /// Draws one delivery delay.
    pub fn sample(&self, rng: &mut DetRng) -> SimDuration {
        match *self {
            DelayModel::Fixed(d) => d,
            DelayModel::Uniform { min, max } => {
                if min == max {
                    min
                } else {
                    SimDuration::from_nanos(rng.gen_range(min.as_nanos()..=max.as_nanos()))
                }
            }
        }
    }
}

impl Default for DelayModel {
    /// A LAN-ish default: uniform over `[0.5ms, 2ms]`.
    fn default() -> Self {
        DelayModel::uniform(SimDuration::from_micros(500), SimDuration::from_millis(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant() {
        let m = DelayModel::Fixed(SimDuration::from_millis(3));
        let mut rng = DetRng::new(0);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(3));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let min = SimDuration::from_micros(100);
        let max = SimDuration::from_micros(900);
        let m = DelayModel::uniform(min, max);
        let mut rng = DetRng::new(1);
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d >= min && d <= max);
        }
    }

    #[test]
    fn degenerate_uniform_is_fixed() {
        let d = SimDuration::from_micros(7);
        let m = DelayModel::uniform(d, d);
        let mut rng = DetRng::new(2);
        assert_eq!(m.sample(&mut rng), d);
    }

    #[test]
    #[should_panic(expected = "tmin must not exceed tmax")]
    fn inverted_bounds_rejected() {
        DelayModel::uniform(SimDuration::from_micros(9), SimDuration::from_micros(1));
    }

    #[test]
    fn default_is_sane() {
        let DelayModel::Uniform { min, max } = DelayModel::default() else {
            panic!("the default model is uniform");
        };
        assert!(min < max);
    }
}
