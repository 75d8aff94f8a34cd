//! The transport-conformance battery run against every transport in the
//! crate (channel, TCP, and the fault decorator over each) from one
//! shared body — the documented bar for adding another: build a
//! fresh-pair fixture and call `run_conformance`.

use splpg_net::conformance::{run_conformance, run_conformance_with, ConformancePair};
use splpg_net::{
    ChannelTransport, CodecConfig, FaultPlan, FaultyTransport, FeatCodec, StructCodec, TcpConfig,
    TcpTransport, WireStats,
};

/// Small enough that the battery can build an oversized frame cheaply,
/// large enough for every well-formed fixture frame.
const CAP: usize = 4096;

fn channel_pair() -> ConformancePair {
    let stats = WireStats::new();
    let (a, b) = ChannelTransport::pair(64, stats.clone());
    ConformancePair {
        a: Box::new(a.with_max_frame_len(CAP)),
        b: Box::new(b.with_max_frame_len(CAP)),
        stats,
        max_frame_len: CAP,
    }
}

fn tcp_pair() -> ConformancePair {
    let stats = WireStats::new();
    let config = TcpConfig { max_frame_len: CAP, ..TcpConfig::default() };
    let (a, b) = TcpTransport::pair(&config, stats.clone()).expect("loopback TCP unavailable");
    ConformancePair { a: Box::new(a), b: Box::new(b), stats, max_frame_len: CAP }
}

#[test]
fn channel_transport_conforms() {
    run_conformance(&mut channel_pair);
}

#[test]
fn faulty_transport_with_inactive_plan_conforms() {
    // A FaultyTransport whose plan injects nothing must be perfectly
    // transparent — same spec, zero probabilities, over channels.
    run_conformance(&mut || {
        let inner = channel_pair();
        let plan = FaultPlan::default();
        ConformancePair {
            a: Box::new(FaultyTransport::new(inner.a, plan.clone(), 0, inner.stats.clone())),
            b: Box::new(FaultyTransport::new(inner.b, plan, 1, inner.stats.clone())),
            stats: inner.stats,
            max_frame_len: inner.max_frame_len,
        }
    });
}

#[test]
fn tcp_transport_conforms() {
    run_conformance(&mut tcp_pair);
}

/// The codec pairs the compression-enabled passes run under: the two
/// structure codecs crossed with each quantization mode.
fn compressed_configs() -> Vec<CodecConfig> {
    vec![
        CodecConfig { structure: StructCodec::Varint, features: FeatCodec::F32 },
        CodecConfig { structure: StructCodec::Rle, features: FeatCodec::F16 },
        CodecConfig { structure: StructCodec::Varint, features: FeatCodec::Int8 },
    ]
}

#[test]
fn channel_transport_conforms_with_compression() {
    for cfg in compressed_configs() {
        run_conformance_with(&mut channel_pair, cfg);
    }
}

#[test]
fn faulty_transport_conforms_with_compression() {
    for cfg in compressed_configs() {
        run_conformance_with(
            &mut || {
                let inner = channel_pair();
                let plan = FaultPlan::default();
                ConformancePair {
                    a: Box::new(FaultyTransport::new(
                        inner.a,
                        plan.clone(),
                        0,
                        inner.stats.clone(),
                    )),
                    b: Box::new(FaultyTransport::new(inner.b, plan, 1, inner.stats.clone())),
                    stats: inner.stats,
                    max_frame_len: inner.max_frame_len,
                }
            },
            cfg,
        );
    }
}

#[test]
fn tcp_transport_conforms_with_compression() {
    for cfg in compressed_configs() {
        run_conformance_with(&mut tcp_pair, cfg);
    }
}

#[test]
fn faulty_transport_over_tcp_conforms() {
    // The chaos decorator composed over real sockets, plan inactive:
    // the stack the multi-process chaos tests run with.
    run_conformance(&mut || {
        let inner = tcp_pair();
        let plan = FaultPlan::default();
        ConformancePair {
            a: Box::new(FaultyTransport::new(inner.a, plan.clone(), 0, inner.stats.clone())),
            b: Box::new(FaultyTransport::new(inner.b, plan, 1, inner.stats.clone())),
            stats: inner.stats,
            max_frame_len: inner.max_frame_len,
        }
    });
}
