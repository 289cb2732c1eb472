//! Full-stack integration: every workload generator, through every I/O
//! path, over real data, verified byte-exact end to end.

use workloads::btio::BtIo;
use workloads::flashio::FlashIo;
use workloads::ior::Ior;
use workloads::runner::{run_workload, IoMode, RunConfig};
use workloads::tileio::TileIo;

fn modes() -> [IoMode; 3] {
    [
        IoMode::Collective,
        IoMode::Parcoll { groups: 4 },
        IoMode::Independent,
    ]
}

#[test]
fn ior_round_trips_in_every_mode() {
    for mode in modes() {
        let r = run_workload(Ior::tiny(8), RunConfig::verify(mode));
        assert!(r.write_seconds > 0.0, "{mode:?}");
        assert!(r.read_mbps.unwrap() > 0.0, "{mode:?}");
    }
}

#[test]
fn tileio_round_trips_in_every_mode() {
    for mode in modes() {
        let r = run_workload(TileIo::tiny(8), RunConfig::verify(mode));
        assert!(r.write_mbps > 0.0, "{mode:?}");
    }
}

#[test]
fn btio_round_trips_through_intermediate_views() {
    for mode in [IoMode::Collective, IoMode::Parcoll { groups: 2 }] {
        let r = run_workload(BtIo::tiny(4), RunConfig::verify(mode));
        assert!(r.write_mbps > 0.0, "{mode:?}");
    }
}

#[test]
fn btio_larger_grid_round_trips() {
    // 16 ranks (q=4), uneven 10^3 grid: slab remainders exercised.
    let w = BtIo::with_grid(16, 10, 2);
    for mode in [IoMode::Collective, IoMode::Parcoll { groups: 4 }] {
        let r = run_workload(w.clone(), RunConfig::verify(mode));
        assert!(r.write_mbps > 0.0, "{mode:?}");
    }
}

#[test]
fn flash_round_trips_in_every_mode() {
    for mode in modes() {
        let r = run_workload(FlashIo::tiny(8), RunConfig::verify(mode));
        assert!(r.write_mbps > 0.0, "{mode:?}");
    }
}

#[test]
fn flash_plotfiles_round_trip() {
    for make in [FlashIo::plot_centered, FlashIo::plot_corner] {
        let mut w = make(4);
        w.blocks_per_proc = 2;
        w.nb = 3;
        let r = run_workload(w, RunConfig::verify(IoMode::Parcoll { groups: 2 }));
        assert!(r.write_mbps > 0.0);
    }
}

#[test]
fn cyclic_mapping_round_trips() {
    for mode in [IoMode::Collective, IoMode::Parcoll { groups: 4 }] {
        let mut cfg = RunConfig::verify(mode);
        cfg.mapping = simnet::Mapping::Cyclic;
        let r = run_workload(TileIo::tiny(16), cfg);
        assert!(r.write_mbps > 0.0, "{mode:?}");
    }
}

#[test]
fn explicit_aggregator_hints_round_trip() {
    for list in ["0", "0,4", "0,2,4,6", "1,3,5,7"] {
        let mut cfg = RunConfig::verify(IoMode::Parcoll { groups: 2 });
        cfg.info.set("cb_config_list", list);
        let r = run_workload(Ior::tiny(8), cfg);
        assert!(r.write_mbps > 0.0, "aggs {list}");
    }
}

#[test]
fn small_cb_buffer_forces_many_rounds_and_stays_correct() {
    let mut cfg = RunConfig::verify(IoMode::Parcoll { groups: 2 });
    cfg.info.set("cb_buffer_size", 32);
    let r = run_workload(TileIo::tiny(8), cfg);
    assert!(r.profile_max.rounds >= 4, "rounds {}", r.profile_max.rounds);
}

#[test]
fn scatter_iview_round_trips() {
    let mut cfg = RunConfig::verify(IoMode::Parcoll { groups: 2 });
    cfg.info.set("parcoll_iview_scatter", "true");
    let r = run_workload(BtIo::tiny(4), cfg);
    assert!(r.write_mbps > 0.0);
}

#[test]
fn autotune_mode_tunes_then_ranks_agree() {
    use parcoll::ParcollFile;
    use simfs::{FileSystem, FsConfig};
    use simmpi::{Communicator, Info};
    use simnet::{run_cluster, ClusterConfig, IoBuffer, Mapping};

    let fs = FileSystem::new(FsConfig::tiny());
    let fs2 = fs.clone();
    let out = run_cluster(ClusterConfig::cray_xt(16, Mapping::Block), move |ep| {
        let comm = Communicator::world(&ep);
        let rank = comm.rank();
        let info = Info::new()
            .with("parcoll_autotune", "true")
            .with("parcoll_min_group", 2);
        let mut f = ParcollFile::open(&comm, &fs2, "/autotune", &info);
        let n = 256usize;
        let data = |call: usize| -> Vec<u8> { (0..n).map(|i| (rank * 7 + call + i) as u8).collect() };
        // One epoch per call: the tuner explores group counts and
        // aggregator layouts across the calls below.
        let calls = 14usize;
        for call in 0..calls {
            let off = ((call * 16 + rank) * n) as u64;
            f.write_at_all(off, &IoBuffer::from_slice(&data(call)));
        }
        comm.barrier();
        // Every call's bytes read back exactly, whatever knobs it ran with.
        for call in 0..calls {
            let off = ((call * 16 + rank) * n) as u64;
            let got = f.read_at(off, n as u64);
            assert_eq!(got.as_slice().unwrap(), data(call).as_slice(), "call {call}");
        }
        assert!(
            !f.autotune_log().expect("tuning was hinted").is_empty(),
            "a fresh tuner must record its epochs"
        );
        let knobs = f.autotune_knobs().expect("tuner built at the first write");
        f.close();
        knobs
    });
    // All ranks agree on the knobs in force.
    assert!(out.windows(2).all(|w| w[0] == w[1]), "{out:?}");
}

#[test]
fn group_counts_sweep_round_trips() {
    for groups in [2, 3, 4, 8] {
        let r = run_workload(TileIo::tiny(16), RunConfig::verify(IoMode::Parcoll { groups }));
        assert!(r.write_mbps > 0.0, "groups {groups}");
    }
}
