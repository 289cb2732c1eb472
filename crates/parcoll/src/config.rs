//! ParColl tuning knobs, carried as `MPI_Info` hints.

use simmpi::Info;

/// ParColl configuration.
///
/// All fields come from `MPI_Info` hints so that applications adopt
/// ParColl without API changes (paper §4: "ParColl instruments the
/// internal implementation of Collective I/O. It does not alter the
/// semantics of MPI-IO").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParcollConfig {
    /// Requested number of subgroups (`parcoll_groups`). `None` lets
    /// [`ParcollConfig::effective_groups`] choose.
    pub groups: Option<usize>,
    /// Smallest admissible subgroup (`parcoll_min_group`): "provided that
    /// the size of subgroups is not too small, ParColl retains the
    /// benefits of I/O aggregation" (§4). The paper's IOR runs use a
    /// least group size of 8.
    pub min_group_size: usize,
    /// Ablation switch (`parcoll_force_iview`): `Some(true)` routes even
    /// partitionable patterns through the intermediate view,
    /// `Some(false)` forbids view switching (pattern (c) then falls back
    /// to one group).
    pub force_iview: Option<bool>,
    /// FA balancing strategy (`parcoll_balance` = `count` | `bytes`).
    pub balance: crate::fa::Balance,
    /// Ablation switch (`parcoll_iview_scatter`): materialize intermediate
    /// -view data at the *original* physical offsets (scattering each
    /// aggregator window through the view) instead of storing the file in
    /// logical order. Preserves on-disk interoperability at a devastating
    /// cost in tiny requests — the benchmark that shows why the paper's
    /// view switching stores data logically.
    pub iview_scatter: bool,
    /// Online autotuning (`parcoll_autotune`): close the simtrace
    /// phase-attribution signal into a feedback loop that retunes the
    /// subgroup count, aggregator layout and FA strategy per epoch (see
    /// [`crate::autotune`]).
    pub autotune: bool,
    /// Collective calls per autotune epoch (`parcoll_autotune_epoch`,
    /// default 1).
    pub autotune_epoch: usize,
    /// Tile-row snapping (`parcoll_snap_groups`): when a direct cut at the
    /// requested group count produces intersecting FAs, retry at halved
    /// counts until the cuts land on pattern boundaries instead of
    /// switching to the intermediate view. Set by the autotuner's
    /// [`crate::autotune::FaStrategy::TileRows`].
    pub snap_groups: bool,
    /// Override the hinted aggregator distribution with N evenly spaced
    /// aggregators per subgroup (`parcoll_aggs_per_group`). Probed by the
    /// autotuner on I/O-dominated profiles.
    pub aggs_per_group: Option<usize>,
    /// Run coalescing in the intermediate view (`parcoll_iview_coalesce`):
    /// when an aggregator's logical window translates to adjacent or
    /// overlapping physical runs, merge them so each becomes a single OST
    /// request. Off by default so existing traces stay bitwise identical;
    /// the merged read returns the same bytes (translation preserves
    /// logical order, and only *touching* runs merge).
    pub iview_coalesce: bool,
}

impl Default for ParcollConfig {
    fn default() -> Self {
        ParcollConfig {
            groups: None,
            min_group_size: 8,
            force_iview: None,
            balance: crate::fa::Balance::Count,
            iview_scatter: false,
            autotune: false,
            autotune_epoch: 1,
            snap_groups: false,
            aggs_per_group: None,
            iview_coalesce: false,
        }
    }
}

impl ParcollConfig {
    /// Parse from hints; unknown keys are ignored.
    pub fn from_info(info: &Info) -> Self {
        ParcollConfig {
            groups: info.get_usize("parcoll_groups"),
            min_group_size: info.get_usize("parcoll_min_group").unwrap_or(8).max(1),
            force_iview: info.get_bool("parcoll_force_iview"),
            balance: match info.get("parcoll_balance") {
                Some("bytes") => crate::fa::Balance::Bytes,
                _ => crate::fa::Balance::Count,
            },
            iview_scatter: info.get_bool("parcoll_iview_scatter").unwrap_or(false),
            autotune: info.get_bool("parcoll_autotune").unwrap_or(false),
            autotune_epoch: info.get_usize("parcoll_autotune_epoch").unwrap_or(1).max(1),
            snap_groups: info.get_bool("parcoll_snap_groups").unwrap_or(false),
            aggs_per_group: info.get_usize("parcoll_aggs_per_group"),
            iview_coalesce: info.get_bool("parcoll_iview_coalesce").unwrap_or(false),
        }
    }

    /// The subgroup count to use for `nprocs` processes.
    ///
    /// An explicit request is honored up to the minimum-group-size
    /// constraint; otherwise the default targets groups of
    /// `4 × min_group_size` processes (32 with the default minimum — in
    /// the paper's sweet spot: 512 processes / 64 groups = 8, 1024 / 64 =
    /// 16 processes per group).
    pub fn effective_groups(&self, nprocs: usize) -> usize {
        let cap = (nprocs / self.min_group_size).max(1);
        match self.groups {
            Some(g) => g.clamp(1, cap.min(nprocs)),
            None => (nprocs / (4 * self.min_group_size)).clamp(1, cap.min(nprocs)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = ParcollConfig::default();
        assert_eq!(c.groups, None);
        assert_eq!(c.min_group_size, 8);
        assert_eq!(c.force_iview, None);
    }

    #[test]
    fn parses_hints() {
        let info = Info::new()
            .with("parcoll_groups", 64)
            .with("parcoll_min_group", 4)
            .with("parcoll_force_iview", "true");
        let c = ParcollConfig::from_info(&info);
        assert_eq!(c.groups, Some(64));
        assert_eq!(c.min_group_size, 4);
        assert_eq!(c.force_iview, Some(true));
        assert!(!c.iview_scatter);
        let c4 = ParcollConfig::from_info(&Info::new().with("parcoll_balance", "bytes"));
        assert_eq!(c4.balance, crate::fa::Balance::Bytes);
        let c2 = ParcollConfig::from_info(&Info::new().with("parcoll_iview_scatter", "true"));
        assert!(c2.iview_scatter);
    }

    #[test]
    fn explicit_groups_clamped_by_min_size() {
        let c = ParcollConfig {
            groups: Some(256),
            ..ParcollConfig::default()
        };
        // 64 procs / min 8 -> at most 8 groups.
        assert_eq!(c.effective_groups(64), 8);
        assert_eq!(c.effective_groups(512), 64);
    }

    #[test]
    fn default_group_choice_is_reasonable() {
        let c = ParcollConfig::default();
        assert_eq!(c.effective_groups(4), 1);
        assert_eq!(c.effective_groups(64), 2);
        assert_eq!(c.effective_groups(512), 16);
        assert_eq!(c.effective_groups(1024), 32);
    }

    #[test]
    fn one_process_is_one_group() {
        let c = ParcollConfig {
            groups: Some(16),
            ..ParcollConfig::default()
        };
        assert_eq!(c.effective_groups(1), 1);
    }

    #[test]
    fn parses_autotune_hints() {
        let c = ParcollConfig::from_info(
            &Info::new()
                .with("parcoll_autotune", "enable")
                .with("parcoll_autotune_epoch", 2)
                .with("parcoll_snap_groups", "true")
                .with("parcoll_aggs_per_group", 2),
        );
        assert!(c.autotune);
        assert_eq!(c.autotune_epoch, 2);
        assert!(c.snap_groups);
        assert_eq!(c.aggs_per_group, Some(2));
        let d = ParcollConfig::default();
        assert!(!d.autotune);
        assert_eq!(d.autotune_epoch, 1);
    }

    #[test]
    fn parses_iview_coalesce() {
        assert!(!ParcollConfig::default().iview_coalesce);
        let c = ParcollConfig::from_info(&Info::new().with("parcoll_iview_coalesce", "true"));
        assert!(c.iview_coalesce);
    }

    #[test]
    fn zero_min_group_sanitized() {
        let c = ParcollConfig::from_info(&Info::new().with("parcoll_min_group", 0));
        assert_eq!(c.min_group_size, 1);
    }
}
