//! Tenants and their packing keys.
//!
//! A *tenant* is one emulated traffic source owned by some client of the
//! serving process: a model choice (fGn or fARIMA), second-order
//! parameters, a streaming geometry, and a seed. Tenants that agree on
//! everything but the seed are statistically identical sources and can
//! share one circulant spectrum, FFT plan, and synthesis scratch — the
//! whole point of [`vbr_fgn::BatchStream`]. The [`GroupKey`] captures
//! exactly that equivalence: two specs pack into the same batch group
//! iff their keys are equal, where float parameters compare by bit
//! pattern (the same rule the spectrum caches use, so "same key" ⇒
//! "same cached spectrum").

use vbr_fgn::Family;

/// Identity of a tenant, unique across the fleet. `u64` so identities
/// survive snapshot/restore through [`vbr_fgn::StreamState`]'s tenant
/// field.
pub type TenantId = u64;

/// Which generator family drives a tenant's source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceModel {
    /// Fractional Gaussian noise via circulant embedding (always PSD;
    /// `H ∈ (0, 1)`).
    Fgn {
        /// Hurst parameter.
        hurst: f64,
    },
    /// Fractional ARIMA(0, d, 0) via circulant embedding (`H ∈ [0.5,
    /// 1)`; the embedding can be non-PSD, which rejects the spec).
    Farima {
        /// Hurst parameter (`d = H − 1/2`).
        hurst: f64,
    },
}

impl SourceModel {
    /// The Hurst parameter, whichever family.
    pub fn hurst(&self) -> f64 {
        match *self {
            SourceModel::Fgn { hurst } | SourceModel::Farima { hurst } => hurst,
        }
    }

    /// The circulant engine family and Hurst parameter of this model.
    pub fn family(&self) -> (Family, f64) {
        match *self {
            SourceModel::Fgn { hurst } => (Family::Fgn, hurst),
            SourceModel::Farima { hurst } => (Family::Farima, hurst),
        }
    }

    /// Stable wire tag (0 = fGn, 1 = fARIMA) used in keys and snapshots.
    pub(crate) fn tag(&self) -> u64 {
        match self {
            SourceModel::Fgn { .. } => 0,
            SourceModel::Farima { .. } => 1,
        }
    }

    /// Inverse of [`tag`](Self::tag) for snapshot decoding.
    pub(crate) fn from_tag(tag: u64, hurst: f64) -> Option<SourceModel> {
        match tag {
            0 => Some(SourceModel::Fgn { hurst }),
            1 => Some(SourceModel::Farima { hurst }),
            _ => None,
        }
    }
}

/// Everything a client states when asking the fleet for a source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Fleet-unique identity (duplicates are rejected at admission).
    pub tenant: TenantId,
    /// Generator family and Hurst parameter.
    pub model: SourceModel,
    /// Marginal variance of the Gaussian source.
    pub variance: f64,
    /// Streaming block size in samples.
    pub block: usize,
    /// Seam overlap (`None` = prefix-exact default geometry).
    pub overlap: Option<usize>,
    /// Seed of the tenant's private RNG stream.
    pub seed: u64,
}

/// The batch-packing equivalence class of a [`TenantSpec`]: model,
/// Hurst bits, variance bits, and geometry. Seeds deliberately excluded
/// — differing seeds is what makes co-grouped sources independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupKey {
    pub(crate) model: u64,
    pub(crate) hurst_bits: u64,
    pub(crate) variance_bits: u64,
    pub(crate) block: usize,
    /// `overlap + 1`; 0 encodes the prefix-exact default.
    pub(crate) overlap_code: u64,
}

impl GroupKey {
    /// The packing key of a spec.
    pub fn of(spec: &TenantSpec) -> GroupKey {
        GroupKey {
            model: spec.model.tag(),
            hurst_bits: spec.model.hurst().to_bits(),
            variance_bits: spec.variance.to_bits(),
            block: spec.block,
            overlap_code: match spec.overlap {
                None => 0,
                Some(l) => l as u64 + 1,
            },
        }
    }

    /// The model parameters back out of the key (exact — bit patterns
    /// round-trip).
    pub(crate) fn params(&self) -> Option<(SourceModel, f64, usize, Option<usize>)> {
        let hurst = f64::from_bits(self.hurst_bits);
        let model = SourceModel::from_tag(self.model, hurst)?;
        let overlap = match self.overlap_code {
            0 => None,
            c => Some((c - 1) as usize),
        };
        Some((model, f64::from_bits(self.variance_bits), self.block, overlap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> TenantSpec {
        TenantSpec {
            tenant: seed,
            model: SourceModel::Fgn { hurst: 0.8 },
            variance: 1.5,
            block: 64,
            overlap: None,
            seed,
        }
    }

    #[test]
    fn seeds_do_not_split_groups() {
        assert_eq!(GroupKey::of(&spec(1)), GroupKey::of(&spec(2)));
    }

    #[test]
    fn any_parameter_change_splits_groups() {
        let base = GroupKey::of(&spec(1));
        let mut s = spec(1);
        s.model = SourceModel::Farima { hurst: 0.8 };
        assert_ne!(GroupKey::of(&s), base);
        let mut s = spec(1);
        s.model = SourceModel::Fgn { hurst: 0.8 + f64::EPSILON };
        assert_ne!(GroupKey::of(&s), base);
        let mut s = spec(1);
        s.variance = 1.5000001;
        assert_ne!(GroupKey::of(&s), base);
        let mut s = spec(1);
        s.block = 65;
        assert_ne!(GroupKey::of(&s), base);
        let mut s = spec(1);
        s.overlap = Some(0);
        assert_ne!(GroupKey::of(&s), base, "explicit 0 is not the default geometry");
    }

    #[test]
    fn key_params_round_trip() {
        let s = spec(3);
        let (model, variance, block, overlap) = GroupKey::of(&s).params().unwrap();
        assert_eq!(model, s.model);
        assert_eq!(variance, s.variance);
        assert_eq!(block, s.block);
        assert_eq!(overlap, s.overlap);
        let mut with = spec(3);
        with.overlap = Some(7);
        let (_, _, _, l) = GroupKey::of(&with).params().unwrap();
        assert_eq!(l, Some(7));
    }
}
