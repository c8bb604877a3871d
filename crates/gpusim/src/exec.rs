//! Functional execution of an N.5D-blocked kernel plan.
//!
//! The executor processes the grid exactly the way the generated CUDA
//! kernel does at the tile level: one overlapped tile per thread block,
//! redundant recomputation inside the `bT·rad` halo, streaming-dimension
//! division with its extra overlap, write-back restricted to the compute
//! region, constant boundary cells, and the host-side splitting of the time
//! loop into temporal blocks with a shorter final block when
//! `I_T mod bT ≠ 0` (Section 4.3.1). Its numerical output is therefore
//! comparable (bit-for-bit in `f64`) with the naive reference executor,
//! and its counters measure the real redundant work and memory traffic of
//! the chosen configuration.
//!
//! # Tile-level API
//!
//! The tiles of one temporal block are independent: each reads only the
//! immutable input grid and writes a disjoint compute region of the output
//! grid. [`TileContext`] exposes that seam so execution backends (see the
//! `an5d-backend` crate) can distribute tiles across worker threads:
//! [`TileContext::tiles`] enumerates the tiles of one temporal block and
//! [`TileContext::execute_tile`] runs a single tile into a detached
//! [`TileRun`] that is later applied to the output grid with
//! [`TileRun::apply_to`], one row copy per innermost row of its region.
//! [`run_temporal_blocks`] is the host time loop every driver shares: the
//! compute regions of a block's tiles cover the whole interior and the
//! boundary ring is never written, so one clone of the initial grid serves
//! the whole run: the two grids swap roles between blocks. [`execute_plan_on`] is the serial driver built from these
//! pieces, so every backend produces bit-identical grids and counter
//! totals by construction.
//!
//! # Row-major fast path
//!
//! [`TileContext::execute_tile_rows`] executes the same tile through a
//! vectorization-friendly kernel. [`TileContext::new`] compiles the stencil
//! expression once per distinct local-box stride set into a postfix tape
//! whose cell loads are *flat* offsets in the local row-major layout.
//! Constant and cell operands are fused into the operation that consumes
//! them, so constants are scalars and neighbour rows are read in place
//! from the source buffer. The tape runs over fixed-width lane blocks of a
//! row with its operand stack in fixed-width arrays, so every instruction
//! is a short stride-1 loop the compiler can vectorize. All halo/bounds
//! logic is hoisted into per-dimension updatable ranges, and a step writes
//! only the updatable cells of the tile's double buffer: the other cells
//! are never written, so both buffers keep the values loaded once.
//! Every cell still goes through the exact scalar operation sequence of
//! [`eval_expr`] (the tape applies the tree's operations in the recursive
//! evaluator's order with the same operand order, and lanes never
//! interact), so the resulting grid and counters are bit-identical to
//! [`TileContext::execute_tile`] for both `f32` and `f64`.

use crate::TrafficCounters;
use an5d_expr::{BinOp, Expr, UnOp};
use an5d_grid::{Element, Grid, GridInit};
use an5d_plan::{practical_shared_reads, KernelPlan};
use an5d_stencil::exec::eval_expr;
use an5d_stencil::StencilProblem;

/// Result of a blocked run: the final grid plus the work/traffic counters.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedRun<T> {
    /// Final grid state (same shape as the problem's padded grid).
    pub grid: Grid<T>,
    /// Work and traffic counters accumulated over the whole run.
    pub counters: TrafficCounters,
}

/// One spatial tile of a temporal block: per-dimension
/// `(origin, length, halo)` triples in interior coordinates, streaming
/// dimension first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileSpec {
    dims: Vec<(usize, usize, usize)>,
    /// Index of the tile's row kernel in its [`TileContext`].
    kernel: usize,
}

impl TileSpec {
    /// Per-dimension `(origin, length, halo)` triples.
    #[must_use]
    pub fn dims(&self) -> &[(usize, usize, usize)] {
        &self.dims
    }
}

/// The detached result of executing one tile: its local box after the
/// temporal block, of which the write-back (compute) region is applied,
/// plus the counters the tile accumulated.
///
/// Tiles of one temporal block have pairwise-disjoint write-back regions,
/// so a set of `TileRun`s can be produced on any number of threads and
/// applied in any order without changing the resulting grid.
#[derive(Debug, Clone, PartialEq)]
pub struct TileRun<T> {
    /// Origin of the write-back region in stored-grid coordinates.
    origin: Vec<usize>,
    /// Shape of the write-back region.
    region: Vec<usize>,
    /// The tile's local box, row-major.
    local: Vec<T>,
    /// Row-major strides of the local box.
    local_strides: Vec<usize>,
    /// Flat index in `local` of the write-back region's first cell.
    first: usize,
    /// Counters accumulated while executing this tile.
    pub counters: TrafficCounters,
}

impl<T: Element> TileRun<T> {
    /// Write this tile's compute region into the output grid, one
    /// contiguous copy per innermost row of the region.
    ///
    /// # Panics
    ///
    /// Panics if the region does not lie inside `next`.
    pub fn apply_to(&self, next: &mut Grid<T>) {
        assert!(
            self.region.len() == next.ndim()
                && (0..next.ndim()).all(|d| self.origin[d] + self.region[d] <= next.shape()[d]),
            "write-back region {:?} at {:?} outside a {:?} grid",
            self.region,
            self.origin,
            next.shape()
        );
        let inner = self.region.len() - 1;
        let row = self.region[inner];
        let strides = row_major_strides(next.shape());
        let data = next.as_mut_slice();
        let bounds: Vec<(usize, usize)> = self.region[..inner].iter().map(|&e| (0, e)).collect();
        for_each_row(&bounds, |outer| {
            let (mut g, mut l) = (self.origin[inner], self.first);
            for d in 0..inner {
                g += (self.origin[d] + outer[d]) * strides[d];
                l += outer[d] * self.local_strides[d];
            }
            data[g..g + row].copy_from_slice(&self.local[l..l + row]);
        });
    }

    /// A tile's result: its write-back region is the compute region of
    /// `tile` (which always lies in the interior), read from the local box
    /// `local` of extents `local_shape` whose origin is `lo`.
    fn new(
        tile: &TileSpec,
        rad: usize,
        lo: &[usize],
        local_shape: &[usize],
        local: Vec<T>,
        counters: TrafficCounters,
    ) -> Self {
        let origin: Vec<usize> = tile.dims.iter().map(|&(o, _, _)| o + rad).collect();
        let local_strides = row_major_strides(local_shape);
        let first = (0..origin.len())
            .map(|d| (origin[d] - lo[d]) * local_strides[d])
            .sum();
        Self {
            origin,
            region: tile.dims.iter().map(|&(_, len, _)| len).collect(),
            local,
            local_strides,
            first,
            counters,
        }
    }
}

/// Precomputed per-plan state for tile-level execution of temporal blocks.
///
/// The tile decomposition, the row kernels and the per-update cost
/// constants depend only on the plan and problem, not on the temporal
/// block being executed, so one context serves every temporal block of a
/// run.
#[derive(Debug, Clone)]
pub struct TileContext<'a> {
    plan: &'a KernelPlan,
    shape: Vec<usize>,
    tiles: Vec<TileSpec>,
    /// One compiled stencil expression per distinct local-box stride set
    /// among the tiles (interior tiles share one; clipped edge tiles may
    /// differ in their inner extents).
    kernels: Vec<RowKernel>,
    flops_per_update: u128,
    sm_reads_per_update: u128,
    sm_writes_per_update: u128,
    syncs_per_plane: u128,
}

/// Tiling of one dimension: a list of `(origin, length, halo)` triples in
/// interior coordinates.
fn tiles_for_dim(extent: usize, tile_len: usize, halo: usize) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    let mut origin = 0usize;
    while origin < extent {
        let len = tile_len.min(extent - origin);
        out.push((origin, len, halo));
        origin += tile_len;
    }
    out
}

/// A tile's local box in stored-grid coordinates: the compute region plus
/// the recomputation halo plus one stencil radius of read-only data,
/// clipped to the stored grid. Returns the box's origin and extents.
fn local_box(
    dims: &[(usize, usize, usize)],
    shape: &[usize],
    rad: usize,
) -> (Vec<usize>, Vec<usize>) {
    dims.iter()
        .zip(shape)
        .map(|(&(origin, len, halo), &extent)| {
            let lo = origin.saturating_sub(halo);
            (lo, (origin + len + halo + 2 * rad).min(extent) - lo)
        })
        .unzip()
}

impl<'a> TileContext<'a> {
    /// Build the tile decomposition for one temporal block of the plan and
    /// compile its row kernels.
    ///
    /// # Panics
    ///
    /// Panics if the plan and problem describe different stencils.
    #[must_use]
    pub fn new(plan: &'a KernelPlan, problem: &StencilProblem) -> Self {
        assert_eq!(
            plan.def().name(),
            problem.def().name(),
            "plan and problem describe different stencils"
        );
        let def = plan.def();
        let halo = plan.geometry().halo_per_side;
        let interior = problem.interior();
        let shape = problem.grid_shape();
        let ndim = interior.len();

        // Per-dimension tilings: the streaming dimension is divided only
        // when hS_N is set (then each stream block carries the bT·rad
        // overlap); the blocked dimensions are tiled by the compute region.
        let mut dim_tiles: Vec<Vec<(usize, usize, usize)>> = Vec::with_capacity(ndim);
        match plan.config().hsn() {
            Some(h) => dim_tiles.push(tiles_for_dim(interior[0], h, halo)),
            None => dim_tiles.push(vec![(0, interior[0], 0)]),
        }
        for (d, &cr) in plan.geometry().compute_region.iter().enumerate() {
            dim_tiles.push(tiles_for_dim(interior[d + 1], cr, halo));
        }

        // Odometer over the cartesian product of per-dimension tiles, in
        // row-major order (the order the serial executor visits them).
        // Each tile gets the kernel compiled for its local strides.
        let mut tiles = Vec::new();
        let mut kernels: Vec<(Vec<usize>, RowKernel)> = Vec::new();
        let mut tile_idx = vec![0usize; ndim];
        'odometer: loop {
            let dims: Vec<(usize, usize, usize)> = tile_idx
                .iter()
                .enumerate()
                .map(|(d, &i)| dim_tiles[d][i])
                .collect();
            let strides = row_major_strides(&local_box(&dims, &shape, def.radius()).1);
            let kernel = match kernels.iter().position(|(s, _)| *s == strides) {
                Some(k) => k,
                None => {
                    let compiled = RowKernel::compile(def.expr(), &strides);
                    kernels.push((strides, compiled));
                    kernels.len() - 1
                }
            };
            tiles.push(TileSpec { dims, kernel });
            let mut d = ndim;
            loop {
                if d == 0 {
                    break 'odometer;
                }
                d -= 1;
                tile_idx[d] += 1;
                if tile_idx[d] < dim_tiles[d].len() {
                    break;
                }
                tile_idx[d] = 0;
            }
        }

        Self {
            plan,
            shape,
            tiles,
            kernels: kernels.into_iter().map(|(_, k)| k).collect(),
            flops_per_update: def.flops_per_cell() as u128,
            sm_reads_per_update: practical_shared_reads(def) as u128,
            sm_writes_per_update: plan.resources().shared_stores_per_cell as u128,
            syncs_per_plane: plan.schedule().syncs_per_plane() as u128,
        }
    }

    /// The tiles of one temporal block, in the serial execution order.
    #[must_use]
    pub fn tiles(&self) -> &[TileSpec] {
        &self.tiles
    }

    /// Execute one tile for a temporal block of `chunk` combined time-steps.
    ///
    /// The tile reads only `current`; its output (the values of its
    /// write-back region plus its counter deltas) is returned detached so
    /// the caller decides when and where to apply it. `current` must have
    /// the problem's padded grid shape.
    #[must_use]
    pub fn execute_tile<T: Element>(
        &self,
        current: &Grid<T>,
        tile: &TileSpec,
        chunk: usize,
    ) -> TileRun<T> {
        let def = self.plan.def();
        let rad = def.radius();
        let shape = &self.shape;
        let ndim = shape.len();
        let mut counters = TrafficCounters::new();
        let (lo, local_shape) = local_box(&tile.dims, shape, rad);

        // Load the tile from global memory (one read per cell per temporal
        // block — the defining property of N.5D blocking).
        let mut src = Grid::<T>::from_fn(&local_shape, |l| {
            let g: Vec<usize> = l.iter().zip(&lo).map(|(&a, &b)| a + b).collect();
            current.get(&g)
        });
        counters.gm_reads += src.len() as u128;
        counters.thread_blocks += 1;
        counters.syncs += self.syncs_per_plane * local_shape[0] as u128;

        let expr = def.expr();
        for _step in 0..chunk {
            let mut dst = src.clone();
            let mut idx = vec![0usize; ndim];
            let total: usize = local_shape.iter().product();
            for flat in 0..total {
                // Decode the flat index (row-major).
                let mut rem = flat;
                for d in (0..ndim).rev() {
                    idx[d] = rem % local_shape[d];
                    rem /= local_shape[d];
                }
                // (a) all neighbours available within the local box,
                // (b) the cell is in the global interior (never update the
                //     boundary ring).
                let locally_updatable =
                    (0..ndim).all(|d| idx[d] >= rad && idx[d] + rad < local_shape[d]);
                if !locally_updatable {
                    continue;
                }
                let globally_interior = (0..ndim).all(|d| {
                    let g = idx[d] + lo[d];
                    g >= rad && g + rad < shape[d]
                });
                if !globally_interior {
                    continue;
                }
                let resolve = |offset: an5d_expr::Offset| {
                    let mut n = [0isize; 3];
                    for (d, (&i, &o)) in idx.iter().zip(offset.components()).enumerate() {
                        n[d] = i as isize + o as isize;
                    }
                    src.at(&n[..ndim]).expect("neighbour inside the local box")
                };
                let value = eval_expr(expr, &resolve);
                dst.set(&idx, value);
                counters.cell_updates += 1;
                counters.flops += self.flops_per_update;
                counters.sm_reads += self.sm_reads_per_update;
                counters.sm_writes += self.sm_writes_per_update;
            }
            src = dst;
        }

        let region: usize = tile.dims.iter().map(|&(_, len, _)| len).product();
        counters.gm_writes += region as u128;
        counters.valid_updates += region as u128 * chunk as u128;
        let local = src.as_slice().to_vec();
        TileRun::new(tile, rad, &lo, &local_shape, local, counters)
    }

    /// Execute one tile through the row-major fast path.
    ///
    /// Produces a [`TileRun`] bit-identical (values *and* counters) to
    /// [`TileContext::execute_tile`] for the same inputs, but restructured
    /// for autovectorization: the tile's row kernel (compiled once, in
    /// [`TileContext::new`]) runs over lane blocks of contiguous rows,
    /// halo/bounds checks are hoisted into per-dimension updatable ranges,
    /// and the load is one row copy per row. The local box is loaded once
    /// and copied once into the second buffer; after that a step writes
    /// only its updatable cells, since the two buffers already agree on
    /// every other cell. The last step's buffer becomes the run's local
    /// box as it is.
    #[must_use]
    pub fn execute_tile_rows<T: Element>(
        &self,
        current: &Grid<T>,
        tile: &TileSpec,
        chunk: usize,
    ) -> TileRun<T> {
        let rad = self.plan.def().radius();
        let shape = &self.shape;
        let ndim = shape.len();
        let inner = ndim - 1;
        let mut counters = TrafficCounters::new();

        // Local box bounds in stored-grid coordinates — identical to the
        // scalar path.
        let (lo, local_shape) = local_box(&tile.dims, shape, rad);
        let local_strides = row_major_strides(&local_shape);
        let global_strides = row_major_strides(shape);
        let total: usize = local_shape.iter().product();

        // Load the local box from global memory with one contiguous row
        // copy per innermost row (one read per cell per temporal block —
        // the defining property of N.5D blocking).
        let data = current.as_slice();
        let mut src: Vec<T> = Vec::with_capacity(total + LANES);
        let load_bounds: Vec<(usize, usize)> =
            local_shape[..inner].iter().map(|&e| (0, e)).collect();
        for_each_row(&load_bounds, |outer| {
            let mut g = lo[inner];
            for d in 0..inner {
                g += (outer[d] + lo[d]) * global_strides[d];
            }
            src.extend_from_slice(&data[g..g + local_shape[inner]]);
        });
        // Lane blocks are full width even where a row ends inside one; the
        // padding keeps the surplus lanes' reads inside the buffer.
        src.resize(total + LANES, T::ZERO);
        counters.gm_reads += total as u128;
        counters.thread_blocks += 1;
        counters.syncs += self.syncs_per_plane * local_shape[0] as u128;

        // Updatable range per dimension: the cell's whole neighbourhood
        // must lie inside the local box and the cell itself in the global
        // interior. Both conditions are per-dimension separable, so the
        // scalar path's per-cell checks collapse into one interval
        // intersection per dimension, hoisted out of every inner loop.
        let upd: Vec<(usize, usize)> = (0..ndim)
            .map(|d| {
                let lo_bound = rad.max(rad.saturating_sub(lo[d]));
                let hi_bound = local_shape[d]
                    .saturating_sub(rad)
                    .min((shape[d] - rad).saturating_sub(lo[d]));
                (lo_bound, hi_bound)
            })
            .collect();
        let updates_per_step: u128 = upd
            .iter()
            .map(|&(l, h)| h.saturating_sub(l) as u128)
            .product();
        let lanes = upd[inner].1.saturating_sub(upd[inner].0);

        // Run the temporal block over a double buffer that starts as two
        // copies of the local box; only updatable cells are ever written.
        let kernel = &self.kernels[tile.kernel];
        let mut stack = vec![[T::ZERO; LANES]; kernel.depth];
        let mut dst = src.clone();
        for _step in 0..chunk {
            if lanes > 0 {
                for_each_row(&upd[..inner], |outer| {
                    let mut base = upd[inner].0;
                    for d in 0..inner {
                        base += outer[d] * local_strides[d];
                    }
                    kernel.eval_row(&src, base, &mut stack, &mut dst[base..base + lanes]);
                });
            }
            std::mem::swap(&mut src, &mut dst);
        }
        let steps = chunk as u128;
        counters.cell_updates += updates_per_step * steps;
        counters.flops += updates_per_step * steps * self.flops_per_update;
        counters.sm_reads += updates_per_step * steps * self.sm_reads_per_update;
        counters.sm_writes += updates_per_step * steps * self.sm_writes_per_update;

        let region: usize = tile.dims.iter().map(|&(_, len, _)| len).product();
        counters.gm_writes += region as u128;
        counters.valid_updates += region as u128 * chunk as u128;
        src.truncate(total);
        TileRun::new(tile, rad, &lo, &local_shape, src, counters)
    }
}

/// Cells per lane block of a row kernel: each operand-stack slot is one
/// array of this many cells, so a block's intermediates stay in L1 while
/// every instruction still spans several vector registers.
const LANES: usize = 32;

/// Where an instruction of a row kernel reads one operand from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Operand {
    /// The value an earlier instruction left on top of the stack (popped).
    Stack,
    /// A constant, rounded to `T` and applied as a scalar.
    Const(f64),
    /// The neighbour row at a fixed flat offset from the output row, read
    /// in place from the source buffer.
    Cell(isize),
}

/// One instruction of a compiled row kernel; each pushes one value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Instr {
    /// Push a leaf operand unchanged (only an expression that is a single
    /// leaf needs it).
    Load(Operand),
    Unary(UnOp, Operand),
    Binary(BinOp, Operand, Operand),
    /// `top = top + a·b` (or `top - a·b` for [`BinOp::Sub`]) for leaves
    /// `a` and `b`: a product of two leaves fused into the sum or
    /// difference consuming it. The product is rounded before the sum,
    /// exactly as the two separate instructions would.
    MulAcc(BinOp, Operand, Operand),
}

/// A stencil expression compiled for one local-box geometry: postfix
/// instructions whose cell loads are flat deltas in the local row-major
/// layout, with leaf operands fused into the instruction consuming them.
///
/// The instructions apply the expression tree's operations in exactly the
/// order the recursive [`eval_expr`] does (left subtree, right subtree,
/// combine), each with its operands in their original positions; leaves
/// are pure reads, so reading them at the combine is the same as reading
/// them first. Lanes never interact, so every cell's value is produced by
/// the identical scalar operation sequence — results are bit-identical for
/// `f32` and `f64` alike.
#[derive(Debug, Clone, PartialEq)]
struct RowKernel {
    instrs: Vec<Instr>,
    /// Maximum operand-stack depth the instructions reach (≥ 1).
    depth: usize,
}

impl RowKernel {
    fn compile(expr: &Expr, local_strides: &[usize]) -> Self {
        /// Emit the instructions computing `expr`; a leaf emits nothing
        /// and is returned as the operand of its consumer.
        fn emit(expr: &Expr, strides: &[usize], instrs: &mut Vec<Instr>) -> Operand {
            match expr {
                Expr::Const(c) => Operand::Const(*c),
                Expr::Cell(offset) => Operand::Cell(
                    offset
                        .components()
                        .iter()
                        .zip(strides)
                        .map(|(&o, &s)| o as isize * s as isize)
                        .sum(),
                ),
                Expr::Unary(op, a) => {
                    let a = emit(a, strides, instrs);
                    instrs.push(Instr::Unary(*op, a));
                    Operand::Stack
                }
                Expr::Binary(op, a, b) => {
                    let a = emit(a, strides, instrs);
                    let b = emit(b, strides, instrs);
                    instrs.push(Instr::Binary(*op, a, b));
                    Operand::Stack
                }
            }
        }
        let mut emitted = Vec::new();
        let root = emit(expr, local_strides, &mut emitted);
        if root != Operand::Stack {
            emitted.push(Instr::Load(root));
        }
        let mut instrs: Vec<Instr> = Vec::with_capacity(emitted.len());
        for instr in emitted {
            if let (
                Instr::Binary(op @ (BinOp::Add | BinOp::Sub), Operand::Stack, Operand::Stack),
                Some(&Instr::Binary(BinOp::Mul, a, b)),
            ) = (instr, instrs.last())
            {
                if a != Operand::Stack && b != Operand::Stack {
                    instrs.pop();
                    instrs.push(Instr::MulAcc(op, a, b));
                    continue;
                }
            }
            instrs.push(instr);
        }
        let pops = |o: &Operand| usize::from(*o == Operand::Stack);
        let (mut depth, mut max_depth) = (0usize, 0usize);
        for instr in &instrs {
            depth = match instr {
                Instr::Load(_) => depth + 1,
                Instr::Unary(_, a) => depth - pops(a) + 1,
                Instr::Binary(_, a, b) => depth - pops(a) - pops(b) + 1,
                Instr::MulAcc(..) => depth,
            };
            max_depth = max_depth.max(depth);
        }
        Self {
            instrs,
            depth: max_depth,
        }
    }

    /// Evaluate the kernel for the row of cells whose first output lane
    /// sits at flat index `base` in `src`, writing `out.len()` results to
    /// `out`, one lane block at a time. The last block may run past the
    /// row's end: its surplus lanes read the cells after the row (`src`
    /// extends at least [`LANES`] cells past the last row) and are
    /// discarded.
    fn eval_row<T: Element>(
        &self,
        src: &[T],
        base: usize,
        stack: &mut [[T; LANES]],
        out: &mut [T],
    ) {
        for (k, out) in out.chunks_mut(LANES).enumerate() {
            self.eval_block(src, base + k * LANES, stack);
            out.copy_from_slice(&stack[0][..out.len()]);
        }
    }

    /// Evaluate the kernel for the [`LANES`] cells from flat index `base`,
    /// leaving the results in `stack[0]`.
    fn eval_block<T: Element>(&self, src: &[T], base: usize, stack: &mut [[T; LANES]]) {
        let leaf = |operand: Operand| match operand {
            Operand::Const(c) => Arg::Scalar(T::from_f64(c)),
            Operand::Cell(delta) => {
                let start = base.wrapping_add_signed(delta);
                Arg::Row(
                    src[start..start + LANES]
                        .try_into()
                        .expect("a slice of LANES cells"),
                )
            }
            Operand::Stack => unreachable!("the stack is not a leaf"),
        };
        let mut sp = 0usize;
        for instr in &self.instrs {
            sp = match *instr {
                Instr::Load(a) => unary(stack, sp, a, &leaf, |x| x),
                Instr::Unary(UnOp::Neg, a) => unary(stack, sp, a, &leaf, |x: T| -x),
                Instr::Unary(UnOp::Sqrt, a) => unary(stack, sp, a, &leaf, T::sqrt),
                Instr::Binary(BinOp::Add, a, b) => binary(stack, sp, a, b, &leaf, |x, y| x + y),
                Instr::Binary(BinOp::Sub, a, b) => binary(stack, sp, a, b, &leaf, |x, y| x - y),
                Instr::Binary(BinOp::Mul, a, b) => binary(stack, sp, a, b, &leaf, |x, y| x * y),
                Instr::Binary(BinOp::Div, a, b) => binary(stack, sp, a, b, &leaf, |x, y| x / y),
                Instr::MulAcc(BinOp::Add, a, b) => mul_acc(stack, sp, a, b, &leaf, |x, y| x + y),
                Instr::MulAcc(_, a, b) => mul_acc(stack, sp, a, b, &leaf, |x, y| x - y),
            };
        }
    }
}

/// A leaf operand as read for one lane block: a row of cells or a scalar.
#[derive(Clone, Copy)]
enum Arg<'s, T> {
    Row(&'s [T; LANES]),
    Scalar(T),
}

/// Apply `f` to operand `a` — in place on the stack top when `a` is the
/// stack, else into a newly pushed slot — and return the new stack
/// pointer.
#[inline(always)]
fn unary<'s, T: Element>(
    stack: &mut [[T; LANES]],
    sp: usize,
    a: Operand,
    leaf: &impl Fn(Operand) -> Arg<'s, T>,
    f: impl Fn(T) -> T,
) -> usize {
    if a == Operand::Stack {
        for v in &mut stack[sp - 1] {
            *v = f(*v);
        }
        return sp;
    }
    let out = &mut stack[sp];
    match leaf(a) {
        Arg::Row(x) => {
            for (o, &x) in out.iter_mut().zip(x) {
                *o = f(x);
            }
        }
        Arg::Scalar(x) => out.fill(f(x)),
    }
    sp + 1
}

/// Combine operands `a` and `b` with `f` (always as `f(a, b)`), consuming
/// the stack operands and pushing the result; returns the new stack
/// pointer.
#[inline(always)]
fn binary<'s, T: Element>(
    stack: &mut [[T; LANES]],
    sp: usize,
    a: Operand,
    b: Operand,
    leaf: &impl Fn(Operand) -> Arg<'s, T>,
    f: impl Fn(T, T) -> T,
) -> usize {
    match (a, b) {
        (Operand::Stack, Operand::Stack) => {
            let (below, top) = stack.split_at_mut(sp - 1);
            update(&mut below[sp - 2], Arg::Row(&top[0]), true, f);
            sp - 1
        }
        (Operand::Stack, b) => {
            update(&mut stack[sp - 1], leaf(b), true, f);
            sp
        }
        (a, Operand::Stack) => {
            update(&mut stack[sp - 1], leaf(a), false, f);
            sp
        }
        (a, b) => {
            let out = &mut stack[sp];
            match (leaf(a), leaf(b)) {
                (Arg::Row(x), Arg::Row(y)) => {
                    for ((o, &x), &y) in out.iter_mut().zip(x).zip(y) {
                        *o = f(x, y);
                    }
                }
                (Arg::Row(x), Arg::Scalar(y)) => {
                    for (o, &x) in out.iter_mut().zip(x) {
                        *o = f(x, y);
                    }
                }
                (Arg::Scalar(x), Arg::Row(y)) => {
                    for (o, &y) in out.iter_mut().zip(y) {
                        *o = f(x, y);
                    }
                }
                (Arg::Scalar(x), Arg::Scalar(y)) => out.fill(f(x, y)),
            }
            sp + 1
        }
    }
}

/// `top = f(top, a·b)` for leaves `a` and `b`; returns the (unchanged)
/// stack pointer.
#[inline(always)]
fn mul_acc<'s, T: Element>(
    stack: &mut [[T; LANES]],
    sp: usize,
    a: Operand,
    b: Operand,
    leaf: &impl Fn(Operand) -> Arg<'s, T>,
    f: impl Fn(T, T) -> T,
) -> usize {
    let top = &mut stack[sp - 1];
    match (leaf(a), leaf(b)) {
        (Arg::Row(x), Arg::Row(y)) => {
            for ((t, &x), &y) in top.iter_mut().zip(x).zip(y) {
                *t = f(*t, x * y);
            }
        }
        (Arg::Row(x), Arg::Scalar(y)) => {
            for (t, &x) in top.iter_mut().zip(x) {
                *t = f(*t, x * y);
            }
        }
        (Arg::Scalar(x), Arg::Row(y)) => {
            for (t, &y) in top.iter_mut().zip(y) {
                *t = f(*t, x * y);
            }
        }
        (Arg::Scalar(x), Arg::Scalar(y)) => {
            let product = x * y;
            for t in top.iter_mut() {
                *t = f(*t, product);
            }
        }
    }
    sp
}

/// `top = f(top, other)` when the stack value is the left operand, else
/// `top = f(other, top)`.
#[inline(always)]
fn update<T: Element>(
    top: &mut [T; LANES],
    other: Arg<'_, T>,
    top_is_left: bool,
    f: impl Fn(T, T) -> T,
) {
    match (other, top_is_left) {
        (Arg::Row(y), true) => {
            for (t, &y) in top.iter_mut().zip(y) {
                *t = f(*t, y);
            }
        }
        (Arg::Row(x), false) => {
            for (t, &x) in top.iter_mut().zip(x) {
                *t = f(x, *t);
            }
        }
        (Arg::Scalar(y), true) => {
            for t in top.iter_mut() {
                *t = f(*t, y);
            }
        }
        (Arg::Scalar(x), false) => {
            for t in top.iter_mut() {
                *t = f(x, *t);
            }
        }
    }
}

/// Row-major strides of a shape (innermost dimension has stride 1).
fn row_major_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for dim in (0..shape.len().saturating_sub(1)).rev() {
        strides[dim] = strides[dim + 1] * shape[dim + 1];
    }
    strides
}

/// Odometer over the cartesian product of half-open per-dimension bounds,
/// in row-major order. An empty `bounds` slice yields one visit (the 1D
/// case, where a tile is a single row); an empty range yields none.
fn for_each_row(bounds: &[(usize, usize)], mut f: impl FnMut(&[usize])) {
    if bounds.iter().any(|&(l, h)| l >= h) {
        return;
    }
    let mut idx: Vec<usize> = bounds.iter().map(|&(l, _)| l).collect();
    loop {
        f(&idx);
        let mut d = bounds.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < bounds[d].1 {
                break;
            }
            idx[d] = bounds[d].0;
        }
    }
}

/// The sequence of temporal-block lengths for a time loop of `time_steps`
/// iterations blocked by `bt`: `bt, bt, …` with a shorter final block when
/// `time_steps mod bt ≠ 0` (Section 4.3.1).
#[must_use]
pub fn temporal_chunks(time_steps: usize, bt: usize) -> Vec<usize> {
    let mut chunks = Vec::new();
    let mut remaining = time_steps;
    while remaining > 0 {
        let chunk = remaining.min(bt.max(1));
        chunks.push(chunk);
        remaining -= chunk;
    }
    chunks
}

/// Execute a kernel plan starting from a deterministic initial state.
///
/// # Panics
///
/// Panics if the plan and problem disagree on the stencil (they are built
/// together in normal use).
#[must_use]
pub fn execute_plan<T: Element>(
    plan: &KernelPlan,
    problem: &StencilProblem,
    init: GridInit,
) -> BlockedRun<T> {
    let initial = Grid::<T>::from_init(&problem.grid_shape(), init);
    execute_plan_on(plan, problem, initial)
}

/// Execute a kernel plan starting from an explicit initial grid (used by
/// the equivalence tests to feed the exact same state to the reference and
/// blocked executors).
///
/// # Panics
///
/// Panics if the initial grid's shape does not match the problem.
#[must_use]
pub fn execute_plan_on<T: Element>(
    plan: &KernelPlan,
    problem: &StencilProblem,
    initial: Grid<T>,
) -> BlockedRun<T> {
    run_temporal_blocks(plan, problem, initial, |ctx, current, chunk, next| {
        let mut counters = TrafficCounters::new();
        for tile in ctx.tiles() {
            let run = ctx.execute_tile(current, tile, chunk);
            run.apply_to(next);
            counters += run.counters;
        }
        counters
    })
}

/// The host-side time loop: one kernel launch per temporal block of
/// [`temporal_chunks`].
///
/// `block(ctx, current, chunk, next)` runs one temporal block of `chunk`
/// steps: it reads `current`, writes the compute region of every tile of
/// `ctx` into `next` and returns the block's counters. Those regions cover
/// the whole interior and the boundary ring is never written, so one clone
/// of `initial` serves the whole run: the two grids swap roles between
/// blocks.
///
/// # Panics
///
/// Panics if the initial grid's shape does not match the problem.
pub fn run_temporal_blocks<T: Element>(
    plan: &KernelPlan,
    problem: &StencilProblem,
    initial: Grid<T>,
    mut block: impl FnMut(&TileContext<'_>, &Grid<T>, usize, &mut Grid<T>) -> TrafficCounters,
) -> BlockedRun<T> {
    assert_eq!(
        initial.shape(),
        problem.grid_shape().as_slice(),
        "initial grid shape does not match the problem"
    );
    let ctx = TileContext::new(plan, problem);
    let mut counters = TrafficCounters::new();
    let mut next = initial.clone();
    let mut current = initial;
    for chunk in temporal_chunks(problem.time_steps(), plan.config().bt()) {
        counters += block(&ctx, &current, chunk, &mut next);
        counters.kernel_launches += 1;
        std::mem::swap(&mut current, &mut next);
    }
    BlockedRun {
        grid: current,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_expr::Expr;
    use an5d_grid::{GridDiff, Precision};
    use an5d_plan::{BlockConfig, FrameworkScheme};
    use an5d_stencil::{exec::run_reference, suite, StencilDef};

    fn check_equivalence(
        def: StencilDef,
        interior: &[usize],
        steps: usize,
        bt: usize,
        bs: &[usize],
        hsn: Option<usize>,
    ) -> TrafficCounters {
        let problem = StencilProblem::new(def.clone(), interior, steps).unwrap();
        let config = BlockConfig::new(bt, bs, hsn, Precision::Double).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let init = GridInit::Hash { seed: 42 };
        let reference = run_reference::<f64>(&problem, init);
        let blocked = execute_plan::<f64>(&plan, &problem, init);
        let diff = GridDiff::compute(&reference, &blocked.grid).unwrap();
        assert!(
            diff.is_exact(),
            "{}: blocked execution diverged (max abs {:.3e} at {})",
            def.name(),
            diff.max_abs,
            diff.worst_flat_index
        );
        blocked.counters
    }

    #[test]
    fn blocked_matches_reference_2d_star() {
        check_equivalence(suite::j2d5pt(), &[24, 30], 7, 3, &[16], None);
    }

    #[test]
    fn blocked_matches_reference_2d_second_order() {
        check_equivalence(suite::j2d9pt(), &[20, 26], 6, 2, &[18], None);
    }

    #[test]
    fn blocked_matches_reference_2d_box() {
        check_equivalence(suite::box2d(1), &[16, 16], 5, 2, &[12], None);
    }

    #[test]
    fn blocked_matches_reference_nonlinear_gradient() {
        check_equivalence(suite::gradient2d(), &[18, 18], 4, 2, &[14], None);
    }

    #[test]
    fn blocked_matches_reference_with_stream_division() {
        check_equivalence(suite::j2d5pt(), &[32, 20], 6, 2, &[16], Some(8));
    }

    #[test]
    fn blocked_matches_reference_3d_star() {
        check_equivalence(suite::star3d(1), &[10, 12, 14], 5, 2, &[10, 12], None);
    }

    #[test]
    fn blocked_matches_reference_3d_box_with_division() {
        check_equivalence(suite::j3d27pt(), &[12, 10, 10], 4, 1, &[8, 8], Some(6));
    }

    #[test]
    fn remainder_temporal_block_is_handled() {
        // 7 steps with bT = 3 → blocks of 3, 3, 1.
        let counters = check_equivalence(suite::j2d5pt(), &[20, 20], 7, 3, &[16], None);
        assert_eq!(counters.kernel_launches, 3);
    }

    #[test]
    fn temporal_chunks_split_like_the_host_loop() {
        assert_eq!(temporal_chunks(7, 3), vec![3, 3, 1]);
        assert_eq!(temporal_chunks(6, 3), vec![3, 3]);
        assert_eq!(temporal_chunks(2, 5), vec![2]);
        assert_eq!(temporal_chunks(0, 4), Vec::<usize>::new());
    }

    #[test]
    fn tile_runs_are_detached_and_order_independent() {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[24, 24], 3).unwrap();
        let config = BlockConfig::new(3, &[12], Some(12), Precision::Double).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let ctx = TileContext::new(&plan, &problem);
        assert!(ctx.tiles().len() > 1, "need multiple tiles for this test");

        let current = Grid::<f64>::from_init(&problem.grid_shape(), GridInit::Hash { seed: 9 });
        let runs: Vec<TileRun<f64>> = ctx
            .tiles()
            .iter()
            .map(|tile| ctx.execute_tile(&current, tile, 3))
            .collect();

        // Applying the detached runs in forward and reverse order gives the
        // same grid: write-back regions are disjoint.
        let mut forward = current.clone();
        for run in &runs {
            run.apply_to(&mut forward);
        }
        let mut reverse = current.clone();
        for run in runs.iter().rev() {
            run.apply_to(&mut reverse);
        }
        assert_eq!(forward, reverse);

        // And the serial driver built on the same pieces agrees with a
        // one-temporal-block execution.
        let serial = execute_plan_on::<f64>(&plan, &problem, current);
        assert_eq!(serial.grid, forward);
    }

    #[test]
    fn single_precision_blocked_matches_reference_closely() {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[24, 24], 6).unwrap();
        let config = BlockConfig::new(2, &[16], None, Precision::Single).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let init = GridInit::Hash { seed: 5 };
        let reference = run_reference::<f32>(&problem, init);
        let blocked = execute_plan::<f32>(&plan, &problem, init);
        let diff = GridDiff::compute(&reference, &blocked.grid).unwrap();
        assert!(diff.max_abs <= 1e-5, "f32 divergence too large: {diff:?}");
    }

    #[test]
    fn counters_reflect_redundant_computation() {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[40, 40], 4).unwrap();
        let config = BlockConfig::new(4, &[20], None, Precision::Double).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let run = execute_plan::<f64>(&plan, &problem, GridInit::Hash { seed: 1 });
        // Every interior cell update that ends up in global memory:
        assert_eq!(run.counters.valid_updates, 40 * 40 * 4);
        // Overlapped tiling must have recomputed additional halo cells.
        assert!(run.counters.cell_updates > run.counters.valid_updates);
        assert!(run.counters.redundancy_ratio() > 0.0);
        // N.5D blocking reads each tile once per temporal block; with
        // bT = 4 and 4 steps there is exactly one temporal block.
        assert_eq!(run.counters.kernel_launches, 1);
        assert!(run.counters.gm_reads >= (42 * 42) as u128);
        assert_eq!(run.counters.gm_writes, 40 * 40);
        assert_eq!(
            run.counters.flops,
            run.counters.cell_updates * def.flops_per_cell() as u128
        );
    }

    #[test]
    fn higher_bt_reduces_global_traffic_per_step() {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[64, 64], 8).unwrap();
        let init = GridInit::Hash { seed: 3 };
        let mut traffic = Vec::new();
        for bt in [1usize, 2, 4] {
            let config = BlockConfig::new(bt, &[32], None, Precision::Double).unwrap();
            let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
            let run = execute_plan::<f64>(&plan, &problem, init);
            traffic.push(run.counters.gm_reads + run.counters.gm_writes);
        }
        assert!(
            traffic[0] > traffic[1],
            "bT=2 should move less data than bT=1"
        );
        assert!(
            traffic[1] > traffic[2],
            "bT=4 should move less data than bT=2"
        );
    }

    #[test]
    fn stream_division_adds_redundancy_but_more_blocks() {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[64, 32], 4).unwrap();
        let init = GridInit::Hash { seed: 8 };
        let undivided = {
            let config = BlockConfig::new(2, &[24], None, Precision::Double).unwrap();
            let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
            execute_plan::<f64>(&plan, &problem, init).counters
        };
        let divided = {
            let config = BlockConfig::new(2, &[24], Some(16), Precision::Double).unwrap();
            let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
            execute_plan::<f64>(&plan, &problem, init).counters
        };
        assert!(divided.thread_blocks > undivided.thread_blocks);
        assert!(divided.cell_updates > undivided.cell_updates);
        assert_eq!(divided.valid_updates, undivided.valid_updates);
    }

    fn check_rows_path_matches_scalar_path(
        def: StencilDef,
        interior: &[usize],
        steps: usize,
        bt: usize,
        bs: &[usize],
        hsn: Option<usize>,
    ) {
        let problem = StencilProblem::new(def.clone(), interior, steps).unwrap();
        let config = BlockConfig::new(bt, bs, hsn, Precision::Double).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let ctx = TileContext::new(&plan, &problem);
        let init = GridInit::Hash { seed: 23 };
        let current64 = Grid::<f64>::from_init(&problem.grid_shape(), init);
        let current32 = Grid::<f32>::from_init(&problem.grid_shape(), init);
        for chunk in temporal_chunks(problem.time_steps(), bt) {
            for tile in ctx.tiles() {
                let scalar = ctx.execute_tile(&current64, tile, chunk);
                let rows = ctx.execute_tile_rows(&current64, tile, chunk);
                assert_eq!(scalar, rows, "{}: f64 tile diverged", def.name());
                let scalar32 = ctx.execute_tile(&current32, tile, chunk);
                let rows32 = ctx.execute_tile_rows(&current32, tile, chunk);
                assert_eq!(scalar32, rows32, "{}: f32 tile diverged", def.name());
            }
        }
    }

    #[test]
    fn rows_path_matches_scalar_path_2d() {
        check_rows_path_matches_scalar_path(suite::j2d5pt(), &[24, 30], 7, 3, &[16], None);
        check_rows_path_matches_scalar_path(suite::j2d9pt(), &[20, 26], 6, 2, &[18], None);
        check_rows_path_matches_scalar_path(suite::box2d(1), &[16, 16], 5, 2, &[12], None);
    }

    #[test]
    fn rows_path_matches_scalar_path_nonlinear() {
        // gradient2d exercises Sqrt, Div and nested unary ops in the tape.
        check_rows_path_matches_scalar_path(suite::gradient2d(), &[18, 18], 4, 2, &[14], None);
    }

    #[test]
    fn rows_path_matches_scalar_path_with_stream_division() {
        check_rows_path_matches_scalar_path(suite::j2d5pt(), &[32, 20], 6, 2, &[16], Some(8));
    }

    #[test]
    fn rows_path_matches_scalar_path_3d() {
        check_rows_path_matches_scalar_path(suite::star3d(1), &[10, 12, 14], 5, 2, &[10, 12], None);
        check_rows_path_matches_scalar_path(
            suite::j3d27pt(),
            &[12, 10, 10],
            4,
            1,
            &[8, 8],
            Some(6),
        );
    }

    #[test]
    fn rows_path_matches_scalar_path_odd_geometries() {
        // Tile lengths that do not divide the interior, radius-2 halos and
        // degenerate one-cell-wide remainders.
        check_rows_path_matches_scalar_path(suite::star2d(2), &[17, 13], 5, 2, &[13], None);
        check_rows_path_matches_scalar_path(suite::j2d5pt(), &[9, 25], 4, 3, &[11], Some(5));
    }

    #[test]
    fn rows_path_matches_scalar_path_for_every_fused_operand_shape() {
        // Every operand shape of the fused instructions, with the
        // non-commutative ops on both sides: multiply-accumulate into a
        // difference and a sum (of two cells, of two constants), a
        // constant or cell on the left of a stack value, unary ops on a
        // cell, a constant and the stack, and a single-leaf expression.
        let c = |v: f64| Expr::constant(v);
        let cell = |o: [i32; 2]| Expr::cell(&o);
        let (centre, west, east, north) =
            (cell([0, 0]), cell([0, -1]), cell([0, 1]), cell([-1, 0]));
        let t1 = c(0.5) * centre.clone() - c(0.25) * west.clone() - c(0.125) * east.clone();
        let t2 = east / (c(2.0) + centre.clone() * centre.clone());
        let t3 = -west * c(0.5) + c(0.5) * c(0.25);
        let t4 =
            (c(0.25) - Expr::sqrt(north.clone() * north.clone() + c(0.5))) * Expr::sqrt(c(0.25));
        let mixed = StencilDef::new("mixed2d", (t1 + t2 + t3 + t4) * c(0.5)).unwrap();
        let shift = StencilDef::new("shift2d", north).unwrap();
        for def in [mixed, shift] {
            check_rows_path_matches_scalar_path(def, &[18, 37], 5, 2, &[14], Some(7));
        }
    }

    /// `TileRun::apply_to` as a per-cell scatter: the oracle for the
    /// row-wise write-back.
    fn scatter<T: Element>(run: &TileRun<T>, next: &mut Grid<T>) {
        let ndim = run.region.len();
        let mut idx = vec![0usize; ndim];
        for flat in 0..run.region.iter().product() {
            let mut rem = flat;
            for d in (0..ndim).rev() {
                idx[d] = rem % run.region[d];
                rem /= run.region[d];
            }
            let g: Vec<usize> = (0..ndim).map(|d| run.origin[d] + idx[d]).collect();
            let l: usize = (0..ndim).map(|d| idx[d] * run.local_strides[d]).sum();
            next.set(&g, run.local[run.first + l]);
        }
    }

    /// Apply `runs` both row-wise and per cell onto a grid of `shape`
    /// filled with -1, comparing after every run; returns the number of
    /// cells written.
    fn check_apply_against_scatter(shape: &[usize], runs: &[TileRun<f64>], what: &str) -> usize {
        let mut rows = Grid::<f64>::from_init(shape, GridInit::Constant(-1.0));
        let mut cells = rows.clone();
        for run in runs {
            run.apply_to(&mut rows);
            scatter(run, &mut cells);
            assert_eq!(
                rows, cells,
                "{what}: region {:?} at {:?}",
                run.region, run.origin
            );
        }
        rows.as_slice().iter().filter(|&&v| v != -1.0).count()
    }

    #[test]
    fn row_wise_apply_matches_a_per_cell_scatter() {
        // 1D (no plan can be built for a 1D stencil): a ragged stream
        // division of a 23-cell interior into 5-cell tiles.
        let runs: Vec<TileRun<f64>> = tiles_for_dim(23, 5, 2)
            .into_iter()
            .map(|dim| {
                let tile = TileSpec {
                    dims: vec![dim],
                    kernel: 0,
                };
                let (lo, local_shape) = local_box(&tile.dims, &[25], 1);
                let local = (0..local_shape[0])
                    .map(|i| (lo[0] + i) as f64 * 0.5)
                    .collect();
                TileRun::new(&tile, 1, &lo, &local_shape, local, TrafficCounters::new())
            })
            .collect();
        assert_eq!(check_apply_against_scatter(&[25], &runs, "1D"), 23);

        // 2D and 3D: ragged tilings (no tile length divides its extent),
        // each with and without stream division.
        let cases: [(StencilDef, &[usize], &[usize]); 2] = [
            (suite::j2d5pt(), &[19, 23], &[9]),
            (suite::star3d(1), &[11, 9, 13], &[6, 7]),
        ];
        for (def, interior, bs) in cases {
            for hsn in [None, Some(4)] {
                let problem = StencilProblem::new(def.clone(), interior, 2).unwrap();
                let config = BlockConfig::new(2, bs, hsn, Precision::Double).unwrap();
                let plan =
                    KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
                let ctx = TileContext::new(&plan, &problem);
                let current =
                    Grid::<f64>::from_init(&problem.grid_shape(), GridInit::Hash { seed: 4 });
                let runs: Vec<TileRun<f64>> = ctx
                    .tiles()
                    .iter()
                    .map(|tile| ctx.execute_tile_rows(&current, tile, 2))
                    .collect();
                let what = format!("{} hsn={hsn:?}", def.name());
                // The write-back regions cover exactly the interior.
                assert_eq!(
                    check_apply_against_scatter(&problem.grid_shape(), &runs, &what),
                    interior.iter().product::<usize>(),
                    "{what}"
                );
            }
        }
    }

    /// The vector backend's driver: row-path tiles, applied in canonical
    /// order, over the shared time loop.
    fn execute_plan_rows<T: Element>(
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<T>,
    ) -> BlockedRun<T> {
        run_temporal_blocks(plan, problem, initial, |ctx, current, chunk, next| {
            let mut counters = TrafficCounters::new();
            for tile in ctx.tiles() {
                let run = ctx.execute_tile_rows(current, tile, chunk);
                run.apply_to(next);
                counters += run.counters;
            }
            counters
        })
    }

    fn check_many_blocks<T: Element>(plan: &KernelPlan, problem: &StencilProblem, launches: u128) {
        let initial = Grid::<T>::from_init(&problem.grid_shape(), GridInit::Hash { seed: 61 });
        let serial = execute_plan_on(plan, problem, initial.clone());
        let rows = execute_plan_rows(plan, problem, initial.clone());
        let bits = |g: &Grid<T>| -> Vec<u64> {
            g.as_slice()
                .iter()
                .map(|v| v.into_f64().to_bits())
                .collect()
        };
        assert_eq!(bits(&serial.grid), bits(&rows.grid), "{}", plan.config());
        assert_eq!(serial.counters, rows.counters, "{}", plan.config());
        assert_eq!(rows.counters.kernel_launches, launches);
        assert_ne!(rows.grid, initial, "the interior was updated");

        // The boundary ring is never written: it still holds the initial
        // grid's values after every swap of the two buffers.
        let rad = problem.def().radius();
        let shape = problem.grid_shape();
        for idx in Grid::<T>::zeros(&shape).interior_indices(0) {
            let ring = idx
                .iter()
                .zip(&shape)
                .any(|(&i, &e)| i < rad || i + rad >= e);
            if ring {
                assert_eq!(
                    rows.grid.get(&idx).into_f64().to_bits(),
                    initial.get(&idx).into_f64().to_bits(),
                    "{idx:?}"
                );
            }
        }
    }

    #[test]
    fn many_temporal_blocks_with_stream_division_match_serial_3d() {
        let def = suite::star3d(1);
        let problem = StencilProblem::new(def.clone(), &[13, 11, 10], 7).unwrap();
        // bT = 1: seven blocks; bT = 3: 3 + 3 + 1.
        for (bt, launches) in [(1, 7), (3, 3)] {
            let config = BlockConfig::new(bt, &[9, 10], Some(4), Precision::Double).unwrap();
            let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
            check_many_blocks::<f64>(&plan, &problem, launches);
            check_many_blocks::<f32>(&plan, &problem, launches);
        }
    }

    #[test]
    #[should_panic(expected = "initial grid shape")]
    fn shape_mismatch_is_rejected() {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[16, 16], 2).unwrap();
        let config = BlockConfig::new(1, &[8], None, Precision::Double).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let wrong = Grid::<f64>::zeros(&[4, 4]);
        let _ = execute_plan_on(&plan, &problem, wrong);
    }
}
