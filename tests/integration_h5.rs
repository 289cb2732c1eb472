//! Cross-crate integration: the hierarchical container over ParColl with
//! feature combinations (online autotuning, stripe-aligned domains), at the
//! level an application (Flash) would use it.

use h5lite::{AttrValue, H5File};
use simfs::{FileSystem, FsConfig};
use simmpi::{Communicator, Info};
use simnet::{run_cluster, ClusterConfig, IoBuffer, Mapping};

fn checkpoint_roundtrip(info: Info) {
    let fs = FileSystem::new(FsConfig::tiny());
    let fs2 = fs.clone();
    run_cluster(ClusterConfig::cray_xt(8, Mapping::Block), move |ep| {
        let comm = Communicator::world(&ep);
        let rank = comm.rank();
        let vars = ["dens", "pres", "temp"];
        {
            let mut h5 = H5File::create(&comm, &fs2, "/chk.h5", &info);
            for (v, name) in vars.iter().enumerate() {
                let ds = h5.create_dataset(name, &[8, 4, 4], 8);
                let bytes = 4 * 4 * 8;
                let data: Vec<u8> = (0..bytes).map(|i| (rank * 7 + v * 3 + i) as u8).collect();
                ds.write_slab_all(
                    h5.raw(),
                    &[rank as u64, 0, 0],
                    &[1, 4, 4],
                    &IoBuffer::from_slice(&data),
                );
            }
            h5.set_attr("", "nstep", AttrValue::Int(9));
            h5.close();
        }
        comm.barrier();
        {
            let mut h5 = H5File::open(&comm, &fs2, "/chk.h5", &info);
            assert_eq!(h5.attr("", "nstep"), Some(&AttrValue::Int(9)));
            for (v, name) in vars.iter().enumerate() {
                let ds = h5.dataset(name);
                let got = ds.read_slab_all(h5.raw(), &[rank as u64, 0, 0], &[1, 4, 4]);
                let bytes = 4 * 4 * 8;
                let expect: Vec<u8> =
                    (0..bytes).map(|i| (rank * 7 + v * 3 + i) as u8).collect();
                assert_eq!(got.as_slice().unwrap(), expect.as_slice(), "{name}");
            }
            h5.close();
        }
        let _ = ep;
    });
}

#[test]
fn h5_over_parcoll_groups() {
    checkpoint_roundtrip(
        Info::new()
            .with("parcoll_groups", 4)
            .with("parcoll_min_group", 1),
    );
}

#[test]
fn h5_over_baseline() {
    checkpoint_roundtrip(Info::new().with("parcoll_groups", 1));
}

#[test]
fn h5_under_autotune() {
    checkpoint_roundtrip(
        Info::new()
            .with("parcoll_autotune", "true")
            .with("parcoll_min_group", 2),
    );
}

#[test]
fn h5_with_aligned_domains_and_byte_balance() {
    checkpoint_roundtrip(
        Info::new()
            .with("parcoll_groups", 2)
            .with("parcoll_min_group", 1)
            .with("striping_unit", 1024)
            .with("parcoll_balance", "bytes"),
    );
}

#[test]
fn h5_many_small_datasets() {
    let fs = FileSystem::new(FsConfig::tiny());
    let fs2 = fs.clone();
    run_cluster(ClusterConfig::cray_xt(4, Mapping::Block), move |ep| {
        let comm = Communicator::world(&ep);
        let mut h5 = H5File::create(&comm, &fs2, "/many.h5", &Info::new());
        for i in 0..32 {
            let ds = h5.create_dataset(&format!("var{i:02}"), &[4, 8], 1);
            ds.write_slab_all(
                h5.raw(),
                &[comm.rank() as u64, 0],
                &[1, 8],
                &IoBuffer::from_slice(&[i as u8; 8]),
            );
        }
        comm.barrier();
        let meta = h5.metadata().clone();
        assert_eq!(meta.datasets.len(), 32);
        // Offsets strictly increasing, payloads disjoint.
        for w in meta.datasets.windows(2) {
            assert_eq!(w[0].data_offset + w[0].nbytes(), w[1].data_offset);
        }
        let _ = ep;
        h5.close();
    });
}
