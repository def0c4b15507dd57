//! EvGNN-style event-driven graph network ("GraphNet") and its
//! data-dependent cost schedule.
//!
//! GraphNet is the repo's representative of the event-driven GNN workload
//! class (EvGNN, arXiv 2404.19489): a small convolutional frontend embeds
//! the event frame into a coarse node grid, a stack of graph convolutions
//! aggregates over the grid's Chebyshev neighbourhood, and a 1×1 head
//! decodes the task output. Unlike the frame-based zoo networks, its
//! per-layer cost is *data-dependent*: each graph layer only touches the
//! active node set, which grows by one neighbourhood dilation per layer
//! from the pixels the event stream actually hit.
//!
//! [`graph_net_density_schedule`] replays a deterministic synthetic event
//! stream through [`ev_sparse::graph::EventGraph`]'s active-set dynamics
//! and returns one input density per layer — the measurements
//! `ev_platform::profile::NetworkProfile::record` consumes so every
//! consumer of the profile prices the network identically.

use crate::graph::{GraphBuilder, NetworkGraph};
use crate::layer::{Conv2dCfg, GraphConvCfg, LayerId, LayerKind};
use crate::zoo::ZooConfig;
use crate::{NnError, Task};
use ev_sparse::graph::{active_fraction, EventGraph};

/// Downsampling factor from the sensor frame to the node grid.
pub const NODE_GRID_STRIDE: usize = 4;

/// Chebyshev neighbourhood radius of the event graph.
pub const GRAPH_RADIUS: usize = 1;

/// Number of stacked graph-convolution layers.
pub const GRAPH_LAYERS: usize = 3;

/// Builds the GraphNet graph: 2 downsampling convolutions to the node
/// grid, [`GRAPH_LAYERS`] graph convolutions, and a task head (6
/// parametered ANN layers).
///
/// # Errors
///
/// Propagates builder validation errors (e.g. non-16-divisible input).
pub fn graph_net(cfg: &ZooConfig) -> Result<NetworkGraph, NnError> {
    cfg.validate()?;
    let w = cfg.base_width;
    let (gh, gw) = (cfg.height / NODE_GRID_STRIDE, cfg.width / NODE_GRID_STRIDE);
    let mut b = GraphBuilder::new("GraphNet", Task::ObjectTracking, cfg.input_shape());
    // Convolutional frontend: embed the event frame into the node grid.
    let e1 = b.layer(
        "e1",
        LayerKind::Conv2d(Conv2dCfg::down(cfg.input_channels, w, 3)),
        &[],
    )?;
    let e2 = b.layer("e2", LayerKind::Conv2d(Conv2dCfg::down(w, 2 * w, 3)), &[e1])?;
    // Graph-convolution stack over the grid neighbourhood.
    let gc = GraphConvCfg {
        nodes_h: gh,
        nodes_w: gw,
        radius: GRAPH_RADIUS,
        in_features: 2 * w,
        out_features: 2 * w,
    };
    let mut prev = e2;
    for k in 1..=GRAPH_LAYERS {
        prev = b.layer(format!("g{k}"), LayerKind::GraphConv(gc), &[prev])?;
    }
    // 1×1 head over the node grid (tracking logits).
    let _head = b.layer(
        "track",
        LayerKind::Head {
            in_channels: 2 * w,
            out_channels: 4,
        },
        &[prev],
    )?;
    b.finish()
}

/// Deterministic per-layer *input-density* schedule for [`graph_net`].
///
/// A seeded synthetic event stream (SplitMix64 over the config
/// dimensions) is injected into the node grid's [`EventGraph`]; each
/// graph-convolution layer then sees the active set its predecessors
/// dilated, exactly mirroring the receptive-field growth of the real
/// gather kernels. The returned vector has one entry per graph layer
/// (`graph.workloads().len()` entries) and is what
/// `NetworkProfile::record` consumes as measured densities.
///
/// # Errors
///
/// Propagates builder validation errors from [`graph_net`].
pub fn graph_net_density_schedule(cfg: &ZooConfig) -> Result<Vec<f64>, NnError> {
    let net = graph_net(cfg)?;
    let (gh, gw) = (cfg.height / NODE_GRID_STRIDE, cfg.width / NODE_GRID_STRIDE);
    let grid = EventGraph::grid(gh, gw, GRAPH_RADIUS).map_err(|source| NnError::Kernel {
        layer: LayerId(0),
        source,
    })?;
    // Seeded synthetic stream: ~8% of grid nodes receive an event.
    let mut active = vec![false; grid.nodes()];
    let events = (grid.nodes() / 12).max(4);
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (((cfg.height as u64) << 32) | cfg.width as u64);
    for _ in 0..events {
        let r = (splitmix64(&mut state) as usize) % gh;
        let c = (splitmix64(&mut state) as usize) % gw;
        grid.inject_event(&mut active, r, c)
            .map_err(|source| NnError::Kernel {
                layer: LayerId(0),
                source,
            })?;
    }
    // Every layer sees the current active fraction; each graph layer
    // dilates the set for its successors (one neighbourhood per layer).
    let mut schedule = Vec::with_capacity(net.len());
    for layer in net.layers() {
        schedule.push(active_fraction(&active).clamp(0.01, 1.0));
        if matches!(layer.kind, LayerKind::GraphConv(_)) {
            let (next, _) = grid.dilate(&active).map_err(|source| NnError::Kernel {
                layer: layer.id,
                source,
            })?;
            active = next;
        }
    }
    Ok(schedule)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::counted_layers;

    #[test]
    fn graph_net_builds_and_counts() {
        let g = graph_net(&ZooConfig::small()).unwrap();
        assert_eq!(counted_layers(&g), (0, 3 + GRAPH_LAYERS));
        assert_eq!(g.outputs().len(), 1);
    }

    #[test]
    fn schedule_has_one_density_per_layer() {
        let cfg = ZooConfig::small();
        let g = graph_net(&cfg).unwrap();
        let sched = graph_net_density_schedule(&cfg).unwrap();
        assert_eq!(sched.len(), g.workloads().len());
        for d in &sched {
            assert!((0.0..=1.0).contains(d), "density {d}");
        }
    }

    #[test]
    fn schedule_is_deterministic_and_dilates() {
        let cfg = ZooConfig::small();
        let a = graph_net_density_schedule(&cfg).unwrap();
        let b = graph_net_density_schedule(&cfg).unwrap();
        assert_eq!(a, b);
        // The graph stack occupies layers 2..2+GRAPH_LAYERS; densities
        // grow monotonically as the active set dilates.
        for k in 2..2 + GRAPH_LAYERS {
            assert!(a[k + 1] >= a[k], "dilation must not shrink: {a:?}");
        }
        assert!(
            a.last().unwrap() > &a[2],
            "the stack must actually dilate: {a:?}"
        );
    }

    #[test]
    fn schedule_depends_on_resolution() {
        let small = graph_net_density_schedule(&ZooConfig::small()).unwrap();
        let tiny = graph_net_density_schedule(&ZooConfig::tiny()).unwrap();
        assert_ne!(small, tiny);
    }

    #[test]
    fn graph_layers_dominate_cost_at_scale() {
        // The graph stack is the data-dependent part; it must carry real
        // work so density scaling matters.
        let g = graph_net(&ZooConfig::small()).unwrap();
        let wl = g.workloads();
        let graph_macs: u64 = g
            .layers()
            .iter()
            .zip(&wl)
            .filter(|(l, _)| matches!(l.kind, LayerKind::GraphConv(_)))
            .map(|(_, w)| w.macs)
            .sum();
        assert!(graph_macs > 0);
    }
}
