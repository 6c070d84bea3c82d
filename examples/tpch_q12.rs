//! TPC-H-Q12-like scenario: a hot/cold skewed orders ⋈ lineitem join with a
//! selectivity filter, comparing NOCAP against DHH at two memory budgets —
//! the shape of the paper's Figure 12.
//!
//! ```bash
//! cargo run --release --example tpch_q12
//! ```

use nocap_suite::joins::{DhhConfig, DhhJoin};
use nocap_suite::model::JoinSpec;
use nocap_suite::nocap::{NocapConfig, NocapJoin};
use nocap_suite::obs::Obs;
use nocap_suite::storage::{DeviceProfile, SimDevice};
use nocap_suite::workload::tpch::{self, TpchQ12Config};

fn main() {
    let profile = DeviceProfile::aws_i3();
    for selectivity in [0.488, 0.63] {
        let config = TpchQ12Config::scaled_sf10(selectivity);
        let device = SimDevice::new_ref();
        let wl = tpch::generate(device.clone(), &config).expect("TPC-H workload");
        println!(
            "TPC-H Q12-like, selectivity {selectivity}: |orders| = {}, |filtered lineitem| = {}",
            wl.r.num_records(),
            wl.s.num_records()
        );

        for budget in [96usize, 512] {
            let spec = JoinSpec::paper_synthetic(config.record_bytes, budget);
            device.reset_stats();
            let nocap = NocapJoin::new(spec, NocapConfig::default())
                .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 1, &Obs::off())
                .expect("NOCAP");
            device.reset_stats();
            let dhh = DhhJoin::new(spec, DhhConfig::default())
                .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 1, &Obs::off())
                .expect("DHH");
            assert_eq!(nocap.output_records, dhh.output_records);
            println!(
                "  B = {budget:>4} pages | NOCAP {:>7} I/Os ({:.2}s) | DHH {:>7} I/Os ({:.2}s) | NOCAP saves {:>5.1}%",
                nocap.total_ios(),
                nocap.total_latency_secs(&profile),
                dhh.total_ios(),
                dhh.total_latency_secs(&profile),
                100.0 * (1.0 - nocap.total_ios() as f64 / dhh.total_ios() as f64),
            );
        }
    }
}
