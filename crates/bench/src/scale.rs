//! Run-scale selection for the figure registry and the host-time tools.

/// Paper-scale or reduced-scale execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's process counts and data sizes.
    Paper,
    /// Reduced process counts / sizes for smoke tests and CI.
    Quick,
}

impl Scale {
    /// Parse from `std::env::args`: `--quick` selects [`Scale::Quick`].
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Paper
        }
    }

    /// Choose between two values by scale.
    pub fn pick<T>(self, paper: T, quick: T) -> T {
        match self {
            Scale::Paper => paper,
            Scale::Quick => quick,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Paper.pick(1, 2), 1);
        assert_eq!(Scale::Quick.pick(1, 2), 2);
    }
}
