//! The batched pricings (`GraphProfile::cpu_fractions`,
//! `GraphProfile::edge_on_air_bandwidths`) are the per-item ones
//! (`cpu_fraction`, `edge_on_air_bandwidth`) to the bit, and those are the
//! formula as the model documents it: cycles summed in `OP_CLASSES` order,
//! over the effective clock, over the trace's duration; framed bytes times
//! elements over the duration; the rate multiplier last.

use wishbone_dataflow::{
    EdgeId, ExecCtx, FnWork, Graph, GraphBuilder, OperatorId, Value, OP_CLASSES,
};
use wishbone_profile::{profile, GraphProfile, Platform, SourceTrace};

/// Every platform the crate ships.
fn shipped() -> Vec<Platform> {
    vec![
        Platform::tmote_sky(),
        Platform::nokia_n80(),
        Platform::iphone(),
        Platform::gumstix(),
        Platform::meraki_mini(),
        Platform::voxnet(),
        Platform::scheme_server(),
        Platform::server(),
    ]
}

/// src -> 24 metering stages in a chain -> sink, plus a silent branch off
/// the source that meters nothing and emits nothing (an operator with
/// all-zero counts, and an edge no element crosses). Stage `i` meters a
/// pseudo-random count of every op class per element and emits a vector
/// whose length varies with the element, so mean element sizes are not
/// whole bytes and span one to three mote packets.
fn metered_graph() -> (Graph, OperatorId, OperatorId, EdgeId) {
    let mut b = GraphBuilder::new();
    b.enter_node_namespace();
    let src = b.source("src");
    let mut prev = src;
    for i in 0..24u64 {
        prev = b.transform(
            format!("stage{i}"),
            Box::new(FnWork(move |_p: usize, v: &Value, cx: &mut ExecCtx| {
                let x = match v {
                    Value::VecI16(w) => w[0] as u64,
                    _ => v.as_scalar().expect("the source emits scalars") as u64,
                };
                let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i + 1);
                for &c in &OP_CLASSES {
                    h = h.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    cx.meter().op(c, (h >> 33) % (1 + 97 * i));
                }
                let next = ((x * 31 + i) % 1000) as i16;
                let len = 1 + ((x * 5 + i) % 40) as usize;
                cx.emit(Value::VecI16(vec![next; len]));
            })),
            prev,
        );
    }
    let silent = b.transform(
        "silent",
        Box::new(FnWork(|_p: usize, _v: &Value, _cx: &mut ExecCtx| {})),
        src,
    );
    b.exit_namespace();
    b.sink("out", prev);
    b.sink("void", silent);
    let g = b.finish().expect("the metered graph is valid");
    let quiet_edge = g.out_edges(silent.0)[0];
    (g, src.0, silent.0, quiet_edge)
}

fn metered_profile() -> (GraphProfile, OperatorId, EdgeId) {
    let (g, src, silent, quiet_edge) = metered_graph();
    let trace = SourceTrace {
        source: src,
        elements: (0..7).map(Value::I32).collect(),
        rate_hz: 3.0,
    };
    let prof = profile(&g, &[trace]).expect("profiling succeeds");
    (prof, silent, quiet_edge)
}

/// The documented CPU formula, from public fields only.
fn cpu_formula(prof: &GraphProfile, op: OperatorId, p: &Platform, rate: f64) -> f64 {
    let counts = &prof.operator(op).total_counts;
    let cycles: f64 = OP_CLASSES
        .iter()
        .map(|&c| counts.get(c) as f64 * p.cycle_costs.cost(c))
        .sum();
    cycles / p.effective_hz() / prof.duration_s * rate
}

/// The documented on-air formula, from public fields only.
fn on_air_formula(prof: &GraphProfile, e: EdgeId, p: &Platform, rate: f64) -> f64 {
    let ep = prof.edge(e);
    if ep.elements == 0 {
        return 0.0 * rate;
    }
    let mean = (ep.bytes as f64 / ep.elements as f64).round() as usize;
    p.radio.format.on_air_bytes(mean) as f64 * ep.elements as f64 / prof.duration_s * rate
}

/// Price `chain` both ways at `rate` and compare every entry by bits.
fn assert_parity(prof: &GraphProfile, chain: &[Platform], rate: f64) {
    let chain: Vec<&Platform> = chain.iter().collect();
    let names: Vec<&str> = chain.iter().map(|p| p.name.as_str()).collect();
    let k = chain.len();
    let (mut cpu, mut bw) = (vec![f64::NAN; 3], vec![f64::NAN; 5]);
    prof.cpu_fractions(&chain, rate, &mut cpu);
    prof.edge_on_air_bandwidths(&chain, rate, &mut bw);
    assert_eq!(cpu.len(), prof.operator_count() * k, "{names:?}");
    assert_eq!(bw.len(), prof.edge_count() * k, "{names:?}");
    for i in 0..prof.operator_count() {
        for (t, p) in chain.iter().enumerate() {
            let op = OperatorId(i);
            let one = prof.cpu_fraction(op, p) * rate;
            let formula = cpu_formula(prof, op, p, rate);
            let batched = cpu[i * k + t];
            assert_eq!(
                (batched.to_bits(), one.to_bits()),
                (formula.to_bits(), formula.to_bits()),
                "cpu of {op} on tier {t} of {names:?} at x{rate}: batched {batched:e}, \
                 per item {one:e}, formula {formula:e}"
            );
        }
    }
    for e in 0..prof.edge_count() {
        for (b, p) in chain.iter().enumerate() {
            let edge = EdgeId(e);
            let one = prof.edge_on_air_bandwidth(edge, p) * rate;
            let formula = on_air_formula(prof, edge, p, rate);
            let batched = bw[e * k + b];
            assert_eq!(
                (batched.to_bits(), one.to_bits()),
                (formula.to_bits(), formula.to_bits()),
                "bandwidth of edge {e} on link {b} of {names:?} at x{rate}: batched \
                 {batched:e}, per item {one:e}, formula {formula:e}"
            );
        }
    }
}

const RATES: [f64; 4] = [1.0, 0.37, 3.0, 1.0 / 3.0];

#[test]
fn every_shipped_platform_prices_the_same_bits_batched_and_per_item() {
    let (prof, silent, quiet_edge) = metered_profile();
    // The corner cases are in the profile.
    assert_eq!(prof.operator(silent).total_counts.total(), 0);
    assert_eq!(prof.edge(quiet_edge).elements, 0);
    for &rate in &RATES {
        // Each platform alone, then all of them as one chain (gumstix and
        // voxnet share a cost row, and six of them one packet format).
        for p in shipped() {
            assert_parity(&prof, &[p], rate);
        }
        assert_parity(&prof, &shipped(), rate);
    }
}

#[test]
fn a_repeated_or_renamed_platform_copies_its_price_to_the_bit() {
    let (prof, _, _) = metered_profile();
    let twin = Platform {
        name: "NokiaN80-relay".into(),
        ..Platform::nokia_n80()
    };
    let chains = [
        // A deep path: the N80 relay and the N80 gateway.
        vec![
            Platform::tmote_sky(),
            Platform::nokia_n80(),
            Platform::nokia_n80(),
            Platform::server(),
        ],
        // Two platforms that differ only in name.
        vec![Platform::nokia_n80(), twin.clone(), Platform::server()],
        vec![twin, Platform::tmote_sky(), Platform::nokia_n80()],
    ];
    for &rate in &RATES {
        for chain in &chains {
            assert_parity(&prof, chain, rate);
        }
    }
}

#[test]
fn an_empty_chain_prices_nothing_and_clears_the_buffer() {
    let (prof, _, _) = metered_profile();
    let (mut cpu, mut bw) = (vec![1.0; 4], vec![2.0; 4]);
    prof.cpu_fractions(&[], 1.0, &mut cpu);
    prof.edge_on_air_bandwidths(&[], 1.0, &mut bw);
    assert!(cpu.is_empty() && bw.is_empty());
}
