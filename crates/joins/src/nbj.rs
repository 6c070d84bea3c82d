//! Nested Block Join (NBJ).
//!
//! The simplest storage-based join: load the smaller relation into memory in
//! chunks of `⌊b_R·(B−2)/F⌋` records (one page is reserved for streaming the
//! outer relation and one for the join output) and scan the outer relation
//! once per chunk. Its I/O cost is exactly `‖R‖ + #chunks · ‖S‖`, the first
//! row of Table 1.

use nocap_model::pairwise::ChunkLoader;
use nocap_model::{JoinRunReport, JoinSpec};
use nocap_obs::{Obs, Phase};
use nocap_storage::{BufferPool, JoinHashTable, Relation};

/// Nested Block Join executor.
#[derive(Debug, Clone, Copy)]
pub struct NestedBlockJoin {
    spec: JoinSpec,
}

impl NestedBlockJoin {
    /// Creates an NBJ operator with the given spec.
    pub fn new(spec: JoinSpec) -> Self {
        NestedBlockJoin { spec }
    }

    /// Executes `r ⋈ s`, chunking whichever input is smaller. With a
    /// recording `obs`, each chunk's hash table fill shows up as a build
    /// span and each outer pass as a scan span, so the trace makes NBJ's
    /// `#chunks · ‖S‖` cost structure visible.
    pub fn run_obs(
        &self,
        r: &Relation,
        s: &Relation,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        let (inner, outer, inner_is_r) = if r.num_pages() <= s.num_pages() {
            (r, s, true)
        } else {
            (s, r, false)
        };
        let spec = &self.spec;
        let device = r.device().clone();
        let _io_trace = obs.attach_io(&device);
        let pool = BufferPool::new(spec.buffer_pages);
        let _io_pages = pool.reserve(2)?;
        let chunk_records = JoinHashTable::capacity_for_pages(
            pool.available(),
            inner.layout(),
            spec.page_size,
            spec.fudge,
        )
        .max(1);

        let timer = obs.run_timer();
        let base = device.stats();
        let mut output = 0u64;
        let mut chunks = 0u64;
        let mut inner_scan = inner.scan();
        let mut loader = ChunkLoader::new();
        loop {
            let mut table = JoinHashTable::new(inner.layout(), spec.page_size, spec.fudge);
            let build_span = obs.span(Phase::Build);
            let loaded = loader.fill(&mut table, chunk_records, || inner_scan.next_page())?;
            drop(build_span);
            if table.is_empty() {
                break;
            }
            // Freeze the chunk into the vectorized probe layout.
            table.seal();
            chunks += 1;
            let scan_span = obs.span(Phase::Scan);
            let mut outer_scan = outer.scan();
            while let Some(page) = outer_scan.next_page()? {
                for rec in page.record_refs() {
                    output += table.probe_count(rec.key());
                }
            }
            drop(scan_span);
            if loaded < chunk_records {
                break;
            }
        }
        let _ = inner_is_r;
        obs.count("nbj_chunks", chunks);
        obs.gauge_max("buffer_pool_peak_pages", pool.peak() as u64);

        let mut report = JoinRunReport::new("NBJ");
        report.output_records = output;
        report.probe_io = device.stats().since(&base);
        report.finish_run(timer, obs);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_join_count;
    use crate::testutil::{build_workload, expected_output};
    use nocap_storage::SimDevice;

    #[test]
    fn matches_naive_join_on_a_small_workload() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 32);
        let counts = |k: u64| (k % 5) + 1;
        let (r, s) = build_workload(dev.clone(), &spec, 500, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        assert_eq!(expected, expected_output(500, counts));
        dev.reset_stats();
        let report = NestedBlockJoin::new(spec)
            .run_obs(&r, &s, &Obs::off())
            .unwrap();
        assert_eq!(report.output_records, expected);
    }

    #[test]
    fn io_matches_the_table1_formula() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(256, 16);
        let counts = |_k: u64| 4u64;
        let (r, s) = build_workload(dev.clone(), &spec, 2_000, counts);
        dev.reset_stats();
        let report = NestedBlockJoin::new(spec)
            .run_obs(&r, &s, &Obs::off())
            .unwrap();
        // Chunks are sized in records; convert the measured chunk passes back.
        let chunk_records = nocap_storage::JoinHashTable::capacity_for_pages(
            spec.buffer_pages - 2,
            spec.r_layout,
            spec.page_size,
            spec.fudge,
        );
        let chunks = (r.num_records() as f64 / chunk_records as f64).ceil() as u64;
        let expected_io = r.num_pages() as u64 + chunks * s.num_pages() as u64;
        assert_eq!(report.total_ios(), expected_io);
        assert_eq!(report.total_io().writes(), 0, "NBJ never writes");
    }

    #[test]
    fn picks_the_smaller_relation_as_the_chunked_side() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 8);
        // Make S the *smaller* relation: few matches per R key is reversed by
        // swapping the builder inputs.
        let counts = |_k: u64| 1u64;
        let (r, s) = build_workload(dev.clone(), &spec, 1_000, counts);
        dev.reset_stats();
        // Join with inputs swapped: the executor should still chunk the
        // smaller of the two.
        let report = NestedBlockJoin::new(spec)
            .run_obs(&s, &r, &Obs::off())
            .unwrap();
        assert_eq!(report.output_records, 1_000);
    }

    #[test]
    fn single_chunk_when_memory_is_large() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 1_024);
        let counts = |k: u64| k % 3;
        let (r, s) = build_workload(dev.clone(), &spec, 1_000, counts);
        dev.reset_stats();
        let report = NestedBlockJoin::new(spec)
            .run_obs(&r, &s, &Obs::off())
            .unwrap();
        assert_eq!(
            report.total_ios() as usize,
            r.num_pages() + s.num_pages(),
            "one chunk ⇒ each relation is read exactly once"
        );
    }
}
