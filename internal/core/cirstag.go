// Package core implements the CirSTAG pipeline (Algorithm 1 of the paper):
// given a circuit graph and the node embeddings produced by a pre-trained
// GNN, it quantifies the stability of every node and edge by measuring the
// distance-mapping distortion (DMD) between an input manifold built from a
// spectral embedding of the circuit graph and an output manifold built from
// the GNN embeddings.
//
// The three phases are:
//
//  1. Embedding — weighted spectral embedding U_M of the input graph
//     (package embed) and the GNN output matrix Y.
//  2. Manifolds — kNN graphs over U_M and Y, spectrally sparsified into
//     probabilistic graphical models (package pgm).
//  3. Stability — top-s generalized eigenpairs of L_Y⁺·L_X give the weighted
//     eigensubspace V_s = [v_i·√ζ_i]; the stability of edge (p,q) is
//     ‖V_sᵀ·e_pq‖² and a node's score is the mean over its manifold
//     neighbours (paper eq. 9), a surrogate for the local Lipschitz
//     constant of the GNN at that node.
package core

import (
	"math"
	"math/rand"
	"sort"

	"cirstag/internal/cache"
	"cirstag/internal/cirerr"
	"cirstag/internal/coarsen"
	"cirstag/internal/eig"
	"cirstag/internal/embed"
	"cirstag/internal/graph"
	"cirstag/internal/mat"
	"cirstag/internal/obs"
	"cirstag/internal/parallel"
	"cirstag/internal/pgm"
)

// Options configures a CirSTAG run. The zero value gives sensible defaults.
type Options struct {
	// EmbedDims is the spectral-embedding dimension M (Phase 1). Default 16.
	EmbedDims int
	// ScoreDims is the number s of generalized eigenpairs used for scores
	// (Phase 3). Default 8.
	ScoreDims int
	// KNN is the neighbourhood size for manifold construction. Default 10.
	KNN int
	// AvgDegree is the target average degree of the sparsified manifolds.
	// Default 6.
	AvgDegree int
	// SkipDimReduction bypasses Phase 1 and uses the raw input graph as the
	// input manifold (the Fig. 4 ablation). The output manifold is still
	// built from Y.
	SkipDimReduction bool
	// FeatureAlpha, when positive and Features is non-nil in the input,
	// appends standardized node features (scaled by this factor) to the
	// spectral embedding before manifold construction.
	FeatureAlpha float64
	// Multilevel uses the coarsening-based eigensolver for the Phase-1
	// spectral embedding on large graphs (paper ref. [31]).
	Multilevel bool
	// Seed drives every stochastic component (Lanczos start vectors, JL
	// sketches, tree sampling). Runs with equal seeds are identical.
	Seed int64
	// Eig forwards tuning parameters to the eigensolvers.
	Eig eig.Options
	// Cache, when non-nil, persists the Phase-1 spectral embedding and both
	// sparsified manifold PGMs content-addressed by (input bytes, options,
	// seed), so repeated runs on the same design skip those phases entirely.
	// Caching never changes a Result byte: artifacts are stored bit-exactly
	// and every key covers all result-affecting inputs.
	Cache *cache.Store
	// Span, when non-nil, parents the run's trace under an existing span
	// instead of starting a new root: the "core.run" span becomes a child of
	// it. Processes that execute many runs concurrently (the cirstagd job
	// server runs one analysis per job) use this to keep each run's spans
	// inside its own unit-of-work subtree. Never fingerprinted into cache
	// keys — tracing cannot change a Result byte.
	Span *obs.Span
}

// startRoot begins the run's top span: a child of Options.Span when a parent
// was supplied, a fresh root otherwise (the CLI path).
func (o Options) startRoot(name string) *obs.Span {
	if o.Span != nil {
		return o.Span.Child(name)
	}
	return obs.Start(name)
}

func (o Options) withDefaults() Options {
	if o.EmbedDims <= 0 {
		o.EmbedDims = 16
	}
	if o.ScoreDims <= 0 {
		o.ScoreDims = 8
	}
	if o.KNN <= 0 {
		o.KNN = 10
	}
	if o.AvgDegree <= 0 {
		o.AvgDegree = 6
	}
	return o
}

// Input bundles what CirSTAG consumes: the circuit graph, the GNN's node
// embedding matrix (one row per node), and optional raw node features.
type Input struct {
	Graph    *graph.Graph
	Output   *mat.Dense // n x d GNN node embeddings (Y)
	Features *mat.Dense // optional n x f raw node features
}

// EdgeScore is the stability score of one input-manifold edge.
type EdgeScore struct {
	U, V  int
	Score float64 // ‖V_sᵀ e_uv‖²
}

// Result is the full output of a CirSTAG run.
type Result struct {
	// NodeScores[p] is the stability score of node p (eq. 9). Larger means
	// less stable (larger local Lipschitz constant).
	NodeScores mat.Vec
	// EdgeScores lists the per-edge DMD scores on the input manifold.
	EdgeScores []EdgeScore
	// InputManifold and OutputManifold are the learned PGMs G_X and G_Y.
	InputManifold  *graph.Graph
	OutputManifold *graph.Graph
	// Eigenvalues are the top-s generalized eigenvalues ζ₁ ≥ … ≥ ζ_s of
	// L_Y⁺·L_X.
	Eigenvalues mat.Vec
	// Eigenvectors are the matching B-normalized generalized eigenvectors
	// (vᵀ·L_Y·v = 1, unweighted). Retained so incremental re-analysis can
	// warm-start the next solve from them.
	Eigenvectors []mat.Vec
	// Embedding is the Phase-1 spectral embedding actually used (nil when
	// SkipDimReduction is set).
	Embedding *mat.Dense
}

// Clone deep-copies a Result: scores, manifolds, spectra, and embedding share
// no storage with the receiver, so mutating one cannot corrupt the other.
// Incremental baselines rely on this — every Result handed out by
// RunIncremental is a clone of (or disjoint from) the retained baseline state.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	cp := &Result{
		NodeScores:  r.NodeScores.Clone(),
		EdgeScores:  append([]EdgeScore(nil), r.EdgeScores...),
		Eigenvalues: r.Eigenvalues.Clone(),
	}
	if r.InputManifold != nil {
		cp.InputManifold = r.InputManifold.Clone()
	}
	if r.OutputManifold != nil {
		cp.OutputManifold = r.OutputManifold.Clone()
	}
	if r.Eigenvectors != nil {
		cp.Eigenvectors = make([]mat.Vec, len(r.Eigenvectors))
		for i, v := range r.Eigenvectors {
			cp.Eigenvectors[i] = v.Clone()
		}
	}
	if r.Embedding != nil {
		cp.Embedding = r.Embedding.Clone()
	}
	return cp
}

// Run executes the CirSTAG pipeline.
//
// Failures follow the internal/cirerr contract: malformed input (nil or
// mismatched matrices, non-finite embedding entries) returns an error tagged
// cirerr.ErrBadInput; geometry degenerate enough to make any score NaN/±Inf
// returns cirerr.ErrDegenerateGeometry; and an internal invariant panic
// anywhere in the pipeline is recovered at this boundary and returned tagged
// cirerr.ErrInternal instead of crashing the caller. A returned *Result
// always carries finite node and edge scores.
func Run(in Input, opts Options) (res *Result, err error) {
	defer cirerr.RecoverTo(&err, "core.run")
	if err := validateInput(in); err != nil {
		return nil, err
	}
	n := in.Graph.N()
	opts = opts.withDefaults()
	// Every stochastic stage owns an RNG stream forked from Options.Seed
	// (rather than sharing one sequential source), so the input- and
	// output-manifold builds can overlap without their random sequences
	// depending on scheduling: same seed, same Result, any worker count.
	rngEmbed := parallel.NewRNG(opts.Seed, 0)
	rngGX := parallel.NewRNG(opts.Seed, 1)
	rngGY := parallel.NewRNG(opts.Seed, 2)
	rngEig := parallel.NewRNG(opts.Seed, 3)

	// Trace: one top span per run (a root, or a child of Options.Span), one
	// child per pipeline phase. Spans are nil no-ops unless obs is enabled,
	// and recording only reads the clock, so enabling observability cannot
	// change any Result byte. The run-ID stamp is what joins this span tree
	// with the JSON log stream, the Perfetto trace export, and the
	// run-history ledger entry.
	root := opts.startRoot("core.run")
	defer root.End()
	if obs.Enabled() {
		obs.Debugf("core.run start: run_id=%s span=%d n=%d seed=%d", obs.RunID(), root.ID(), n, opts.Seed)
	}

	// Artifact-cache keys. Each key covers every input that can change the
	// artifact's bytes (graph/feature/output content, options, seed) plus the
	// cache schema version, so a hit is always safe to substitute for the
	// computation. Computed only when a cache is attached — hashing is cheap
	// relative to any pipeline phase, but not free.
	keys := opts.artifactKeys(in)

	// Phases 1 + 2: the input manifold G_X (spectral embedding + PGM) and the
	// output manifold G_Y (PGM over the GNN embeddings) share no state, so
	// they build concurrently. Each artifact (embedding, G_X, G_Y) is
	// independently cacheable; a cache hit skips the corresponding phase and
	// its trace span entirely (warm runs are recognizable by span absence).
	var gx, gy *graph.Graph
	var embedding *mat.Dense
	parallel.Do(
		func() {
			gxSpan := root.Child("input_manifold")
			defer gxSpan.End()
			if opts.SkipDimReduction {
				if g, ok := opts.Cache.GetGraph(kindManifold, keys.gx); ok {
					gx = g
					return
				}
				gx = pgm.FromGraph(in.Graph, rngGX, pgm.Options{AvgDegree: opts.AvgDegree, SkipSparsify: true, Span: gxSpan})
				opts.Cache.PutGraph(kindManifold, keys.gx, gx)
				return
			}
			if m, ok := opts.Cache.GetDense(kindEmbed, keys.embed); ok {
				embedding = m
			} else {
				es := gxSpan.Child("embedding")
				sp := embed.Spectral(in.Graph, rngEmbed, embed.Options{Dims: opts.EmbedDims, Multilevel: opts.Multilevel, Eig: opts.Eig})
				embedding = sp.U
				if opts.FeatureAlpha > 0 && in.Features != nil {
					embedding = embed.FeatureAugmented(sp.U, in.Features, opts.FeatureAlpha)
				}
				es.End()
				opts.Cache.PutDense(kindEmbed, keys.embed, embedding)
			}
			if g, ok := opts.Cache.GetGraph(kindManifold, keys.gx); ok {
				gx = g
				return
			}
			gx = pgm.Build(embedding, rngGX, pgm.Options{K: opts.KNN, AvgDegree: opts.AvgDegree, Span: gxSpan})
			opts.Cache.PutGraph(kindManifold, keys.gx, gx)
		},
		func() {
			gySpan := root.Child("output_manifold")
			defer gySpan.End()
			if g, ok := opts.Cache.GetGraph(kindManifold, keys.gy); ok {
				gy = g
				return
			}
			gy = pgm.Build(in.Output, rngGY, pgm.Options{K: opts.KNN, AvgDegree: opts.AvgDegree, Span: gySpan})
			opts.Cache.PutGraph(kindManifold, keys.gy, gy)
		},
	)

	res, err = scorePhase(gx, gy, n, opts, rngEig, root, nil, eig.WarmOptions{})
	if err != nil {
		return nil, err
	}
	res.Embedding = embedding
	return res, nil
}

// validateInput checks the Run contract up front so violations surface as
// typed bad-input errors instead of panics (or NaN scores) deep inside the
// pipeline.
func validateInput(in Input) error {
	if in.Graph == nil || in.Output == nil {
		return cirerr.New("core.run", cirerr.ErrBadInput, "input graph and output embeddings are required")
	}
	n := in.Graph.N()
	if in.Output.Rows != n {
		return cirerr.New("core.run", cirerr.ErrBadInput, "graph has %d nodes but output has %d rows", n, in.Output.Rows)
	}
	if n < 3 {
		return cirerr.New("core.run", cirerr.ErrBadInput, "need at least 3 nodes, got %d", n)
	}
	if in.Output.Cols < 1 {
		return cirerr.New("core.run", cirerr.ErrBadInput, "output embeddings need at least one column")
	}
	if r, c := in.Output.FirstNonFinite(); r >= 0 {
		return cirerr.New("core.run", cirerr.ErrBadInput, "output embedding entry (%d,%d) is %v; GNN output must be finite", r, c, in.Output.At(r, c))
	}
	if in.Features != nil {
		if in.Features.Rows != n {
			return cirerr.New("core.run", cirerr.ErrBadInput, "graph has %d nodes but features have %d rows", n, in.Features.Rows)
		}
		if r, c := in.Features.FirstNonFinite(); r >= 0 {
			return cirerr.New("core.run", cirerr.ErrBadInput, "feature entry (%d,%d) is %v; features must be finite", r, c, in.Features.At(r, c))
		}
	}
	return nil
}

// Artifact kinds in the cache store. The embedding and the two manifolds are
// separate entries so each phase can hit or miss independently (a perturbed Y
// invalidates G_Y but leaves the embedding and G_X warm).
const (
	kindEmbed    = "core.embed"
	kindManifold = "core.manifold"
)

// runKeys holds the content-addressed keys of a run's cacheable artifacts.
type runKeys struct {
	embed, gx, gy string
}

// artifactKeys derives the cache keys for a run. With no cache attached it
// returns zero keys without hashing anything.
func (o Options) artifactKeys(in Input) runKeys {
	if o.Cache == nil {
		return runKeys{}
	}
	var keys runKeys
	// Everything Phase 1 consumes: graph content, embedding dims/solver
	// options, feature augmentation, and the seed that drives the Lanczos
	// start vectors (RNG stream 0 is derived from it).
	ek := cache.NewKey(kindEmbed).Graph(in.Graph).Int(o.Seed)
	embed.Options{Dims: o.EmbedDims, Multilevel: o.Multilevel, Eig: o.Eig}.AddToKey(ek)
	ek.Float(o.FeatureAlpha).Dense(in.Features)
	keys.embed = ek.Sum()

	// G_X: the embedding inputs (or the raw graph under SkipDimReduction)
	// plus the manifold construction parameters and the seed driving the
	// sparsifier's RNG stream.
	gk := cache.NewKey(kindManifold).String("gx").Bool(o.SkipDimReduction).
		Int(int64(o.KNN)).Int(int64(o.AvgDegree)).Int(o.Seed)
	gk.String(keys.embed) // transitively covers graph + embed options
	keys.gx = gk.Sum()

	// G_Y: the GNN output content plus manifold parameters and seed.
	yk := cache.NewKey(kindManifold).String("gy").Dense(in.Output).
		Int(int64(o.KNN)).Int(int64(o.AvgDegree)).Int(o.Seed)
	keys.gy = yk.Sum()
	return keys
}

// degenerateRuns counts runs rejected because scoring produced a non-finite
// value (collapsed manifold geometry).
var degenerateRuns = obs.NewCounter("core.degenerate_geometry")

// scorePhase runs the shared tail of the pipeline on prepared manifolds:
// connectivity repair, the Phase-3 generalized eigensolve, and DMD scoring.
// With warm == nil it is deterministic given (gx, gy, opts, rngEig), which is
// what makes cache-warm and incremental full rebuilds bit-identical to cold
// runs. A non-nil warm set switches the eigensolve to the warm-started
// Rayleigh–Ritz refinement (eig.GeneralizedTopKWarm, tuned by wopts) — an
// approximation reserved for the incremental patch path, never for any path
// that promises bit-identity. When the geometry is so degenerate that any
// eigenvalue or score comes out NaN/±Inf it returns
// cirerr.ErrDegenerateGeometry — a Result never carries a non-finite score.
func scorePhase(gx, gy *graph.Graph, n int, opts Options, rngEig *rand.Rand, root *obs.Span, warm []mat.Vec, wopts eig.WarmOptions) (*Result, error) {
	// The generalized eigenproblem needs both Laplacians to share a single
	// nontrivial kernel; bridge any stray components with weak edges.
	cs := root.Child("connectivity")
	gx = ensureConnected(gx)
	gy = ensureConnected(gy)
	cs.End()

	// Phase 3: top-s generalized eigenpairs of L_Y⁺ L_X.
	s := opts.ScoreDims
	if s > n-1 {
		s = n - 1
	}
	var pairs []eig.GeneralizedPair
	if warm != nil {
		eigSpan := root.Child("eigensolve_warm")
		pairs = eig.GeneralizedTopKWarm(gx.Laplacian(), gy.Laplacian(), s, warm, rngEig, wopts)
		eigSpan.End()
	} else {
		seeds := multilevelSeeds(gx, gy, s, opts, root)
		eigSpan := root.Child("eigensolve")
		pairs = eig.GeneralizedTopKSeeded(gx.Laplacian(), gy.Laplacian(), s, seeds, rngEig, opts.Eig)
		eigSpan.End()
	}

	// Weighted eigensubspace V_s = [v_i √ζ_i].
	scoreSpan := root.Child("scoring")
	defer scoreSpan.End()
	vs := mat.NewDense(n, len(pairs))
	eigenvalues := make(mat.Vec, len(pairs))
	eigenvectors := make([]mat.Vec, len(pairs))
	for j, p := range pairs {
		eigenvalues[j] = p.Value
		eigenvectors[j] = p.Vector
		col := p.Vector.Clone()
		w := p.Value
		if w < 0 {
			w = 0
		}
		mat.Scale(math.Sqrt(w), col)
		vs.SetCol(j, col)
	}

	// Edge scores ‖V_sᵀ e_pq‖² on the input manifold, node scores as the
	// neighbour mean (eq. 9).
	edges := gx.Edges()
	edgeScores := make([]EdgeScore, len(edges))
	parallel.ForEach(len(edges), 0, func(i int) {
		e := edges[i]
		var sc float64
		ru := vs.Row(e.U)
		rv := vs.Row(e.V)
		for c := range ru {
			d := ru[c] - rv[c]
			sc += d * d
		}
		edgeScores[i] = EdgeScore{U: e.U, V: e.V, Score: sc}
	})
	// Node accumulation stays serial in edge order: edges sharing an endpoint
	// would race, and a fixed summation order keeps scores bit-identical
	// across worker counts.
	nodeSum := make(mat.Vec, n)
	nodeCnt := make([]int, n)
	for _, es := range edgeScores {
		nodeSum[es.U] += es.Score
		nodeSum[es.V] += es.Score
		nodeCnt[es.U]++
		nodeCnt[es.V]++
	}
	nodeScores := make(mat.Vec, n)
	for p := 0; p < n; p++ {
		if nodeCnt[p] > 0 {
			nodeScores[p] = nodeSum[p] / float64(nodeCnt[p])
		}
	}

	// Degenerate-geometry gate: SAGMAN-style manifold collapse (coincident
	// embeddings, rank-deficient Laplacians) can push NaN/±Inf through the
	// eigensolve. Rather than average garbage into the eq.-9 rankings, refuse
	// the run with a typed error.
	if i := eigenvalues.FirstNonFinite(); i >= 0 {
		degenerateRuns.Inc()
		return nil, cirerr.New("core.score", cirerr.ErrDegenerateGeometry, "generalized eigenvalue %d is %v", i, eigenvalues[i])
	}
	if p := nodeScores.FirstNonFinite(); p >= 0 {
		degenerateRuns.Inc()
		return nil, cirerr.New("core.score", cirerr.ErrDegenerateGeometry, "stability score of node %d is %v", p, nodeScores[p])
	}

	return &Result{
		NodeScores:     nodeScores,
		EdgeScores:     edgeScores,
		InputManifold:  gx,
		OutputManifold: gy,
		Eigenvalues:    eigenvalues,
		Eigenvectors:   eigenvectors,
	}, nil
}

// multilevelSeedMinNodes gates the multilevel warm start: below it the fine
// eigensolve is already cheap and the coarse solve would be pure overhead.
const multilevelSeedMinNodes = 1024

// mlSeedBuilds counts score phases that warm-started the generalized
// eigensolve from a coarse-level solve.
var mlSeedBuilds = obs.NewCounter("core.multilevel_seed.builds")

// multilevelSeeds warm-starts the Phase-3 generalized eigensolve on large
// manifolds (Options.Multilevel, n ≥ multilevelSeedMinNodes): it coarsens G_X
// by heavy-edge matching, pushes G_Y through the same aggregation so the
// coarse problem is still L_X·v = ζ·L_Y·v in miniature, solves it there, and
// prolongates the coarse eigenvectors back to the fine node set. The fine
// iteration then starts (and restarts) from directions already rich in the
// dominant generalized eigenspace instead of from noise. Seeding draws from
// its own RNG stream (4), so it never perturbs the streams of the embedding,
// manifold, or fine-eigensolve stages. Returns nil — meaning "run unseeded,
// exactly as before" — when disabled, below threshold, or when coarsening
// cannot shrink the graph.
func multilevelSeeds(gx, gy *graph.Graph, s int, opts Options, root *obs.Span) []mat.Vec {
	n := gx.N()
	if !opts.Multilevel || n < multilevelSeedMinNodes {
		return nil
	}
	span := root.Child("multilevel_seed")
	defer span.End()
	rngML := parallel.NewRNG(opts.Seed, 4)
	h := coarsen.Build(gx, rngML, coarsen.Options{MinNodes: 256})
	if len(h.Levels) == 0 {
		return nil
	}
	mapping := h.ProlongMap(len(h.Levels) - 1)
	cgx := h.Coarsest()
	cgy := coarsen.Project(gy, mapping, cgx.N())
	k := s
	if k > cgx.N()-1 {
		k = cgx.N() - 1
	}
	if k < 1 {
		return nil
	}
	pairs := eig.GeneralizedTopKSeeded(
		ensureConnected(cgx).Laplacian(), ensureConnected(cgy).Laplacian(),
		k, nil, rngML, opts.Eig)
	if len(pairs) == 0 {
		return nil
	}
	mlSeedBuilds.Inc()
	seeds := make([]mat.Vec, len(pairs))
	for j, p := range pairs {
		v := make(mat.Vec, n)
		for i := 0; i < n; i++ {
			v[i] = p.Vector[mapping[i]]
		}
		seeds[j] = v
	}
	return seeds
}

// ensureConnected returns g if connected; otherwise it returns a copy with
// weak bridging edges (1e-3 × the mean edge weight) between consecutive
// component representatives, which keeps the Laplacian kernel
// one-dimensional without materially distorting the spectrum.
func ensureConnected(g *graph.Graph) *graph.Graph {
	comp, nc := g.ConnectedComponents()
	if nc <= 1 {
		return g
	}
	rep := make([]int, nc)
	for i := range rep {
		rep[i] = -1
	}
	for v, c := range comp {
		if rep[c] == -1 {
			rep[c] = v
		}
	}
	w := 1e-3
	if m := g.M(); m > 0 {
		w = 1e-3 * g.TotalWeight() / float64(m)
	}
	out := g.Clone()
	for c := 1; c < nc; c++ {
		out.AddEdge(rep[0], rep[c], w)
	}
	return out
}

// Ranking orders nodes by descending stability score (most unstable first).
type Ranking struct {
	Order  []int   // node ids, most unstable first
	Scores mat.Vec // scores in the same order
}

// Rank builds a stability ranking from node scores, excluding any node id in
// the exclude set (pass nil to keep all). Ties break by node id for
// determinism.
func Rank(scores mat.Vec, exclude map[int]bool) *Ranking {
	order := make([]int, 0, len(scores))
	for p := range scores {
		if exclude != nil && exclude[p] {
			continue
		}
		order = append(order, p)
	}
	sort.Slice(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] > scores[order[b]]
		}
		return order[a] < order[b]
	})
	out := &Ranking{Order: order, Scores: make(mat.Vec, len(order))}
	for i, p := range order {
		out.Scores[i] = scores[p]
	}
	return out
}

// TopPercent returns the most-unstable pct% of ranked nodes (at least one).
func (r *Ranking) TopPercent(pct float64) []int {
	k := count(len(r.Order), pct)
	return append([]int(nil), r.Order[:k]...)
}

// BottomPercent returns the most-stable pct% of ranked nodes (at least one).
func (r *Ranking) BottomPercent(pct float64) []int {
	k := count(len(r.Order), pct)
	return append([]int(nil), r.Order[len(r.Order)-k:]...)
}

func count(n int, pct float64) int {
	k := int(float64(n) * pct / 100)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}
