//! Golden pin of the single-server serving simulator's exact output: every
//! outcome's bits, the aggregates, the span emission order and the span
//! TSV bytes for the two iteration-granular policies.
//!
//! The workload covers the scheduler's edge cases at once: simultaneous
//! arrivals, a full batch with a queued request, single-token requests
//! (prefilled in a group and next to running decodes), an idle gap the
//! clock has to jump, and prompts longer than one prefill chunk.

use llmsim_core::serving::{simulate_traced, SchedulingPolicy, ServingConfig, ServingRequest};
use llmsim_core::{CpuBackend, VecSink};
use llmsim_model::families;
use std::fmt::Write as _;

fn workload() -> Vec<ServingRequest> {
    let req = |id, arrival_s, prompt_len, gen_len| ServingRequest {
        id,
        arrival_s,
        prompt_len,
        gen_len,
    };
    vec![
        req(0, 0.0, 32, 6),
        req(1, 0.0, 96, 1),
        req(2, 0.0, 48, 4),
        req(3, 0.0, 16, 5),
        req(4, 0.001, 8, 1),
        req(5, 5.0, 130, 3),
        req(6, 5.0, 24, 1),
        req(7, 5.0005, 70, 2),
    ]
}

/// Runs `policy` on the golden workload and returns the report digest
/// (one line per outcome with its f64 bits, then the aggregates and the
/// span emission order) and the span TSV.
fn run(policy: SchedulingPolicy) -> (String, String) {
    let cfg = ServingConfig {
        max_batch: 3,
        policy,
    };
    let mut sink = VecSink::new();
    let rep = simulate_traced(
        &CpuBackend::paper_spr(),
        &families::opt_1_3b(),
        &cfg,
        &workload(),
        &mut sink,
    );
    let mut digest = String::new();
    for o in &rep.outcomes {
        writeln!(
            digest,
            "{} {:016x} {:016x} {:016x}",
            o.id,
            o.queue_delay_s.to_bits(),
            o.ttft_s.to_bits(),
            o.e2e_s.to_bits()
        )
        .unwrap();
    }
    writeln!(
        digest,
        "makespan {:016x} tokens {} stall {:016x}",
        rep.makespan_s.to_bits(),
        rep.generated_tokens,
        rep.max_decode_stall_s.to_bits()
    )
    .unwrap();
    let order: Vec<String> = sink.spans.iter().map(|s| s.id.to_string()).collect();
    writeln!(digest, "spans {}", order.join(",")).unwrap();
    (digest, sink.to_tsv())
}

#[test]
fn iteration_level_output_is_pinned() {
    let (digest, tsv) = run(SchedulingPolicy::IterationLevel);
    assert_eq!(
        digest,
        concat!(
            "1 3f85146f96f79776 3f85146f96f79776 3f85146f96f79776\n",
            "2 3f85146f96f79776 3f85146f96f79776 3fa8936c263bda38\n",
            "4 3fac3eee4d26a9e1 3fac3eee4d26a9e1 3fac3eee4d26a9e1\n",
            "0 3f85146f96f79776 3f85146f96f79776 3fb366fdf7583322\n",
            "3 3f9cf930d3ef0a8e 3f9cf930d3ef0a8e 3fb366fdf7583322\n",
            "6 3f9b28c928473b00 3f9b28c928473b00 3f9b28c928473b00\n",
            "5 3f811900e56efc00 3f811900e56efc00 3fa2a74708e23a00\n",
            "7 3f9aa5b6b9afae00 3f9aa5b6b9afae00 3fa265bdd1967380\n",
            "makespan 4014254e8e11c474 tokens 23 stall 3f844b89d2fa7208\n",
            "spans 1,2,4,0,3,6,5,7\n",
        )
    );
    assert_eq!(
        tsv,
        concat!(
            "id\tmodel\treplica\toutcome\tarrival_s\tqueue_delay_s\tdispatch_s\tprefill_end_s\tdecode_s\tdecode_steps\tcompletion_s\tbatch_at_dispatch\tprefix_hit_tokens\tpreemptions\n",
            "0\t0\tNaN\tcompleted\t0\t0\t0\t0.010292884630824988\t0.06549739941806436\t5\t0.07579028404888935\t3\t0\t0\n",
            "1\t0\tNaN\tcompleted\t0\t0\t0\t0.010292884630824988\t0\t0\t0.010292884630824988\t3\t0\t0\n",
            "2\t0\tNaN\tcompleted\t0\t0\t0\t0.010292884630824988\t0.03770685946708659\t3\t0.04799974409791158\t3\t0\t0\n",
            "3\t0\tNaN\tcompleted\t0\t0.020117090529704056\t0.020117090529704056\t0.028294337211046065\t0.047495946837843285\t4\t0.07579028404888935\t3\t0\t0\n",
            "4\t0\tNaN\tcompleted\t0.001\t0.04699974409791158\t0.04799974409791158\t0.05616762439522772\t0\t0\t0.05616762439522772\t3\t0\t0\n",
            "5\t0\tNaN\tcompleted\t5\t0\t5\t5.008348471643215\t0.02808400424259183\t2\t5.036432475885807\t1\t0\t0\n",
            "6\t0\tNaN\tcompleted\t5\t0.018188731206826958\t5.018188731206827\t5.026522772868527\t0\t0\t5.026522772868527\t3\t0\t0\n",
            "7\t0\tNaN\tcompleted\t5.0005\t0.017688731206827235\t5.018188731206827\t5.026522772868527\t0.009909703017279448\t1\t5.036432475885807\t3\t0\t0\n",
        )
    );
}

#[test]
fn chunked_prefill_output_is_pinned() {
    let (digest, tsv) = run(SchedulingPolicy::ChunkedPrefill { chunk_tokens: 64 });
    assert_eq!(
        digest,
        concat!(
            "1 3f9e408bb2b1a125 3f9e408bb2b1a125 3f9e408bb2b1a125\n",
            "0 3f80c99d5548fe75 3f80c99d5548fe75 3faf125602d8b60f\n",
            "4 3fb1ff34f7cbe1da 3fb1ff34f7cbe1da 3fb1ff34f7cbe1da\n",
            "2 3fa496604c49758e 3fa496604c49758e 3fb240be2f17a882\n",
            "3 3faa070610fd752d 3faa070610fd752d 3fb742ff90858cec\n",
            "6 3fa20f194fb46c80 3fa20f194fb46c80 3fa20f194fb46c80\n",
            "5 3f993aaeeb28a900 3f993aaeeb28a900 3fa78840fa460780\n",
            "7 3fab750b8471e380 3fab750b8471e380 3fb03d6375b13880\n",
            "makespan 40144178a0455c6f tokens 23 stall 3f85e65fff13918a\n",
            "spans 1,0,4,2,3,6,5,7\n",
        )
    );
    assert_eq!(
        tsv,
        concat!(
            "id\tmodel\treplica\toutcome\tarrival_s\tqueue_delay_s\tdispatch_s\tprefill_end_s\tdecode_s\tdecode_steps\tcompletion_s\tbatch_at_dispatch\tprefix_hit_tokens\tpreemptions\n",
            "0\t0\tNaN\tcompleted\t0\t0\t0\t0.008197049298473072\t0.052489718134194244\t5\t0.060686767432667314\t1\t0\t0\n",
            "1\t0\tNaN\tcompleted\t0\t0.008197049298473072\t0.008197049298473072\t0.029543097287757853\t0\t0\t0.029543097287757853\t2\t0\t0\n",
            "2\t0\tNaN\tcompleted\t0\t0.029543097287757853\t0.029543097287757853\t0.04020977908360655\t0.03109061926345806\t3\t0.07130039834706461\t2\t0\t0\n",
            "3\t0\tNaN\tcompleted\t0\t0.04020977908360655\t0.04020977908360655\t0.05083483655355745\t0.04003122635806141\t4\t0.09086606291161886\t3\t0\t0\n",
            "4\t0\tNaN\tcompleted\t0.001\t0.05968676743266731\t0.060686767432667314\t0.07130039834706461\t0\t0\t0.07130039834706461\t3\t0\t0\n",
            "5\t0\tNaN\tcompleted\t5\t0\t5\t5.024637921431499\t0.021323487709059563\t2\t5.045961409140559\t1\t0\t0\n",
            "6\t0\tNaN\tcompleted\t5\t0.024637921431499343\t5.024637921431499\t5.035271445254886\t0\t0\t5.035271445254886\t2\t0\t0\n",
            "7\t0\tNaN\tcompleted\t5.0005\t0.0347714452548864\t5.035271445254886\t5.054127357404315\t0.009809356990696294\t1\t5.063936714395012\t1\t0\t0\n",
        )
    );
}
