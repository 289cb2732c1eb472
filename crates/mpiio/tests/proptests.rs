//! Property-based tests for the MPI-IO layer: flattening and view
//! arithmetic agree with naive reference interpreters, and the collective
//! write path agrees with independent writes for arbitrary patterns.

use mpiio::{AccessPlan, Datatype, Ext, FileView};
use proptest::prelude::*;

/// Naive interpreter: materialize the byte positions a datatype selects.
fn reference_positions(t: &Datatype, base: u64, out: &mut Vec<u64>) {
    match t {
        Datatype::Bytes(n) => out.extend(base..base + n),
        Datatype::Contiguous { count, inner } => {
            for i in 0..*count {
                reference_positions(inner, base + i as u64 * inner.extent(), out);
            }
        }
        Datatype::Vector {
            count,
            blocklen,
            stride,
            inner,
        } => {
            for b in 0..*count {
                for i in 0..*blocklen {
                    reference_positions(
                        inner,
                        base + ((b * stride + i) as u64) * inner.extent(),
                        out,
                    );
                }
            }
        }
        Datatype::HIndexed { blocks, inner } => {
            for &(disp, count) in blocks {
                for i in 0..count {
                    reference_positions(inner, base + disp + i as u64 * inner.extent(), out);
                }
            }
        }
        Datatype::Struct { fields } => {
            for (disp, f) in fields {
                reference_positions(f, base + disp, out);
            }
        }
        Datatype::Resized { inner, .. } => reference_positions(inner, base, out),
        Datatype::Subarray { .. } => {
            // Covered through tile_2d below; direct enumeration would
            // duplicate the production code.
            let flat = t.flatten();
            for seg in &flat.segs {
                out.extend(base + seg.off..base + seg.end());
            }
        }
    }
}

fn arb_leafy_type() -> impl Strategy<Value = Datatype> {
    // Non-overlapping constructions only (file views must not overlap).
    prop_oneof![
        (1u64..64).prop_map(Datatype::Bytes),
        (1usize..5, 1u64..16).prop_map(|(count, n)| Datatype::Contiguous {
            count,
            inner: Box::new(Datatype::Bytes(n)),
        }),
        (1usize..5, 1usize..3, 3usize..6, 1u64..8).prop_map(
            |(count, blocklen, stride, n)| Datatype::Vector {
                count,
                blocklen,
                stride: stride.max(blocklen),
                inner: Box::new(Datatype::Bytes(n)),
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flatten produces exactly the positions the naive interpreter
    /// enumerates, sorted and coalesced.
    #[test]
    fn flatten_matches_reference(t in arb_leafy_type()) {
        let mut expect = Vec::new();
        reference_positions(&t, 0, &mut expect);
        expect.sort_unstable();
        let flat = t.flatten();
        let mut got = Vec::new();
        for seg in &flat.segs {
            got.extend(seg.off..seg.end());
        }
        prop_assert_eq!(got, expect);
        prop_assert_eq!(flat.size, t.size());
        // Coalesced: no two adjacent segments touch.
        for w in flat.segs.windows(2) {
            prop_assert!(w[0].end() < w[1].off);
        }
    }

    /// View extents over any (start, len) window equal the naive
    /// enumeration of tiled positions.
    #[test]
    fn view_extents_match_reference(t in arb_leafy_type(),
                                    disp in 0u64..128,
                                    start in 0u64..256,
                                    len in 0u64..256) {
        let flat = t.flatten();
        prop_assume!(flat.size > 0);
        let view = FileView::new(disp, &t);
        let extents = view.extents(start, len);
        // Reference: walk tiles one data byte at a time.
        let mut expect = Vec::new();
        let mut tile_positions = Vec::new();
        for seg in &flat.segs {
            tile_positions.extend(seg.off..seg.end());
        }
        for i in start..start + len {
            let tile = i / flat.size;
            let within = (i % flat.size) as usize;
            expect.push(disp + tile * flat.extent + tile_positions[within]);
        }
        let mut got = Vec::new();
        for e in &extents {
            got.extend(e.off..e.end());
        }
        prop_assert_eq!(got, expect);
        // Extents are sorted, coalesced and non-empty.
        for w in extents.windows(2) {
            prop_assert!(w[0].end() < w[1].off);
        }
        prop_assert!(extents.iter().all(|e| e.len > 0));
    }

    /// AccessPlan buffer offsets tile the buffer exactly.
    #[test]
    fn plan_buffer_offsets_tile(extents in proptest::collection::vec(
        (0u64..10_000, 1u64..100), 0..20)) {
        // Sort and de-overlap the random runs.
        let mut runs: Vec<Ext> = Vec::new();
        let mut cursor = 0u64;
        let mut sorted = extents;
        sorted.sort();
        for (off, len) in sorted {
            let off = off.max(cursor + 1);
            runs.push(Ext::new(off, len));
            cursor = off + len;
        }
        let plan = AccessPlan::from_extents(runs);
        let mut expect_buf = 0u64;
        for (buf_off, e) in plan.with_buffer_offsets() {
            prop_assert_eq!(buf_off, expect_buf);
            expect_buf += e.len;
        }
        prop_assert_eq!(expect_buf, plan.total);
    }

    /// Domain partitioning (plain and aligned) covers the range exactly
    /// with contiguous, ordered domains.
    #[test]
    fn domains_cover_exactly(min in 0u64..10_000, len in 0u64..1_000_000,
                             naggs in 1usize..64, align in 1u64..10_000) {
        use mpiio::twophase::domains::*;
        let max = min + len;
        for d in [
            compute_file_domains(min, max, naggs),
            compute_file_domains_aligned(min, max, naggs, align),
        ] {
            prop_assert_eq!(d.len(), naggs);
            prop_assert_eq!(d.iter().map(|e| e.len).sum::<u64>(), len);
            let mut pos = min;
            for e in &d {
                prop_assert_eq!(e.off, pos);
                pos = e.end();
            }
            prop_assert_eq!(pos, max);
        }
    }
}

/// One collective tile write: `ntx * nty` ranks each own one tile of a
/// 2-D array and write it through a subarray view; returns the full file
/// image, read back through the storage layer after the cluster exits.
fn tileio_write_image(ntx: usize, nty: usize, tile_x: usize, tile_y: usize, elem: u64) -> Vec<u8> {
    use simfs::{FsConfig, FileSystem};
    use simmpi::{Communicator, Info};
    use simnet::{run_cluster, ClusterConfig, IoBuffer, SimTime};

    let nprocs = ntx * nty;
    let rows = nty * tile_y;
    let cols = ntx * tile_x;
    let total = (rows * cols) as u64 * elem;
    let fs = FileSystem::new(FsConfig::tiny());
    let fs_in = fs.clone();
    run_cluster(ClusterConfig::ideal(nprocs), move |ep| {
        let comm = Communicator::world(&ep);
        let mut f = mpiio::File::open(&comm, &fs_in, "/tile", &Info::new());
        let r = comm.rank();
        let ft = Datatype::tile_2d(
            rows,
            cols,
            tile_y,
            tile_x,
            (r / ntx) * tile_y,
            (r % ntx) * tile_x,
            elem,
        );
        f.set_view(0, &ft);
        let mine: Vec<u8> = (0..tile_x * tile_y * elem as usize)
            .map(|i| (r * 41 + i * 7) as u8)
            .collect();
        f.write_at_all(0, &IoBuffer::from_vec(mine));
        f.close();
    });
    let (img, _) = fs.handle("/tile").read_at(0, total as usize, SimTime::ZERO);
    img.as_slice()
        .expect("written file holds real bytes")
        .to_vec()
}

proptest! {
    // Each case runs two full clusters; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The scratch-buffer pool is a host-side allocation cache: for any
    /// tile geometry, a pooled two-phase collective write must produce a
    /// byte-identical file to an unpooled one (a stale recycled byte
    /// anywhere in the pack/unpack path would corrupt the image).
    #[test]
    fn pooled_and_unpooled_twophase_writes_agree(
        ntx in 1usize..4,
        nty in 1usize..3,
        tile_x in 1usize..17,
        tile_y in 1usize..9,
        elem in 1u64..9,
    ) {
        let run = |pooled: bool| {
            simnet::set_buffer_pooling(pooled);
            let img = tileio_write_image(ntx, nty, tile_x, tile_y, elem);
            simnet::set_buffer_pooling(true);
            img
        };
        let pooled = run(true);
        let unpooled = run(false);
        prop_assert_eq!(pooled, unpooled);
    }
}

/// Byte at absolute file position `p` of the read-back fixtures.
fn fixture_byte(p: u64) -> u8 {
    (p.wrapping_mul(131) % 251) as u8
}

/// One collective read over a file of `segs.len()` segments of `seg`
/// bytes, segment `i` pre-written as real fixture bytes when `segs[i]`
/// and as synthetic data otherwise. The job has one rank per segment and
/// every rank aggregates, so aggregator `i`'s file domain is segment `i`.
/// Ranks flagged in `readers` read the whole file; the others join the
/// collective with a zero-length request. Returns each rank's buffer.
fn collective_read_back(
    segs: &[bool],
    seg: u64,
    readers: &[bool],
    cb_buffer: u64,
) -> Vec<simnet::IoBuffer> {
    use simfs::{FileSystem, FsConfig};
    use simmpi::{Communicator, Info};
    use simnet::{run_cluster, ClusterConfig, IoBuffer, SimTime};

    let fs = FileSystem::new(FsConfig::tiny());
    let (fh, mut t) = fs.open("/readback", SimTime::ZERO);
    for (i, &real) in segs.iter().enumerate() {
        let off = i as u64 * seg;
        let data = if real {
            IoBuffer::from_vec((off..off + seg).map(fixture_byte).collect())
        } else {
            IoBuffer::synthetic(seg as usize)
        };
        t = fh.write_at(off, &data, t);
    }
    let total = segs.len() as u64 * seg;
    let readers = readers.to_vec();
    let info = Info::new().with("cb_buffer_size", cb_buffer as i64);
    run_cluster(ClusterConfig::ideal(segs.len()), move |ep| {
        let comm = Communicator::world(&ep);
        let mut f = mpiio::File::open(&comm, &fs, "/readback", &info);
        let n = if readers[comm.rank()] { total } else { 0 };
        let buf = f.read_at_all(0, n);
        f.close();
        buf
    })
}

/// What a reader of the whole file must get back: the exact bytes when
/// every segment is real, a synthetic buffer of the full length as soon
/// as any one is synthetic.
fn assert_read_back(segs: &[bool], seg: u64, got: &simnet::IoBuffer) {
    let total = segs.len() as u64 * seg;
    if segs.iter().all(|&r| r) {
        let expect: Vec<u8> = (0..total).map(fixture_byte).collect();
        assert_eq!(got.as_slice().expect("all-real read is real"), &expect[..]);
    } else {
        assert_eq!(got, &simnet::IoBuffer::synthetic(total as usize));
    }
}

#[test]
fn all_synthetic_read_returns_synthetic_of_plan_length() {
    let segs = [false, false, false];
    let got = collective_read_back(&segs, 512, &[true, true, false], 1 << 20);
    assert_read_back(&segs, 512, &got[0]);
    assert_read_back(&segs, 512, &got[1]);
}

#[test]
fn all_real_read_is_byte_exact() {
    let segs = [true, true, true];
    let got = collective_read_back(&segs, 512, &[true, false, true], 1 << 20);
    assert_read_back(&segs, 512, &got[0]);
    assert_read_back(&segs, 512, &got[2]);
}

#[test]
fn zero_length_plan_returns_empty_real_buffer() {
    // Rank 1 joins a collective whose other member reads real data...
    let got = collective_read_back(&[true, true], 256, &[true, false], 1 << 20);
    assert!(got[1].is_real() && got[1].is_empty());
    // ...and a synthetic one, and a collective in which nobody reads.
    let got = collective_read_back(&[false, false], 256, &[true, false], 1 << 20);
    assert!(got[1].is_real() && got[1].is_empty());
    let got = collective_read_back(&[true, false], 256, &[false, false], 1 << 20);
    assert!(got.iter().all(|b| b.is_real() && b.is_empty()));
}

#[test]
fn mixed_read_degrades_to_synthetic_in_either_arrival_order() {
    // Rank 0 receives rank 1's payload (segment 1) before its own
    // (segment 0): remote payloads are unpacked before the self payload.
    // Real piece first: segment 1 real, segment 0 synthetic.
    let segs = [false, true];
    let got = collective_read_back(&segs, 1024, &[true, false], 1 << 20);
    assert_read_back(&segs, 1024, &got[0]);
    // Synthetic piece first: segment 1 synthetic, segment 0 real.
    let segs = [true, false];
    let got = collective_read_back(&segs, 1024, &[true, false], 1 << 20);
    assert_read_back(&segs, 1024, &got[0]);
    // Across rounds: with a 256-byte collective buffer the first round
    // delivers only the head of each segment.
    for segs in [[true, false], [false, true]] {
        let got = collective_read_back(&segs, 1024, &[true, true], 256);
        assert_read_back(&segs, 1024, &got[0]);
        assert_read_back(&segs, 1024, &got[1]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any mix of real and synthetic segments, readers and round
    /// sizes, a collective read returns the exact bytes of an all-real
    /// file and a full-length synthetic buffer otherwise; non-readers
    /// get an empty real buffer.
    #[test]
    fn collective_read_back_keeps_buffer_semantics(
        segs in proptest::collection::vec(any::<bool>(), 1..5),
        readers in proptest::collection::vec(any::<bool>(), 4),
        seg in 1u64..700,
        cb_buffer in prop_oneof![Just(1u64 << 20), 64u64..512],
    ) {
        let readers = &readers[..segs.len()];
        let got = collective_read_back(&segs, seg, readers, cb_buffer);
        for (r, buf) in got.iter().enumerate() {
            if readers[r] {
                assert_read_back(&segs, seg, buf);
            } else {
                prop_assert!(buf.is_real() && buf.is_empty(), "rank {}", r);
            }
        }
    }
}
