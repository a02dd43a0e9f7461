package dist

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"testing"

	"tbd/internal/graph"
	"tbd/internal/optim"
	"tbd/internal/prof"
	"tbd/internal/tensor"
)

// runRing executes fn concurrently on every rank of a fresh n-worker
// localhost ring and tears the ring down afterwards.
func runRing(t *testing.T, n int, comp Compression, bytesPerSec float64, fn func(r *Ring)) {
	t.Helper()
	rings, err := NewLocalRings(n, comp, bytesPerSec)
	if err != nil {
		t.Fatalf("building %d-worker ring: %v", n, err)
	}
	defer func() {
		for _, r := range rings {
			r.Close()
		}
	}()
	var wg sync.WaitGroup
	for _, r := range rings {
		wg.Add(1)
		go func(r *Ring) {
			defer wg.Done()
			fn(r)
		}(r)
	}
	wg.Wait()
}

func TestRingAllReduceAverages(t *testing.T) {
	const n, l = 4, 1000
	// Distinct per-rank vectors with a known exact average.
	inputs := make([][]float32, n)
	want := make([]float64, l)
	for r := 0; r < n; r++ {
		rng := tensor.NewRNG(uint64(r + 1))
		inputs[r] = make([]float32, l)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.Norm())
			want[i] += float64(inputs[r][i])
		}
	}
	for i := range want {
		want[i] /= n
	}

	results := make([][]float32, n)
	runRing(t, n, CompressNone, 0, func(r *Ring) {
		flat := append([]float32(nil), inputs[r.rank]...)
		if err := r.AllReduce(flat); err != nil {
			t.Errorf("rank %d: %v", r.rank, err)
			return
		}
		results[r.rank] = flat
	})

	for i := 0; i < l; i++ {
		got := float64(results[0][i])
		if diff := got - want[i]; diff > 1e-5 || diff < -1e-5 {
			t.Fatalf("element %d: ring average %g, want %g", i, got, want[i])
		}
	}
	// Every worker must hold byte-identical results.
	for r := 1; r < n; r++ {
		for i := 0; i < l; i++ {
			if results[r][i] != results[0][i] {
				t.Fatalf("rank %d diverges from rank 0 at element %d", r, i)
			}
		}
	}
}

func TestRingSingleWorkerIsIdentity(t *testing.T) {
	rings, err := NewLocalRings(1, CompressNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rings[0].Close()
	flat := []float32{1, -2, 3}
	if err := rings[0].AllReduce(flat); err != nil {
		t.Fatal(err)
	}
	if flat[0] != 1 || flat[1] != -2 || flat[2] != 3 {
		t.Fatal("1-worker all-reduce must be the identity")
	}
	if in, out := rings[0].WireBytes(); in != 0 || out != 0 {
		t.Fatal("1-worker ring must not touch the network")
	}
}

func TestNewRingValidatesPosition(t *testing.T) {
	if _, err := NewRing(nil, "", RingConfig{Rank: 3, Workers: 2}); err == nil {
		t.Fatal("want error for rank outside [0, workers)")
	}
	if _, err := NewRing(nil, "", RingConfig{Rank: 0, Workers: 0}); err == nil {
		t.Fatal("want error for zero workers")
	}
}

// ringTrain runs `steps` of data-parallel SGD on one rank: every worker
// regenerates the same global batch from an identically seeded data RNG,
// trains on its own shard, and averages gradients through the ring. This
// is the worker loop the orchestrated runtime uses, inlined for tests.
func ringTrain(t *testing.T, r *Ring, seed uint64, steps, globalBatch int) uint64 {
	net := mlpConstructor(seed)()
	opt := optim.NewSGD(0.1)
	dataRNG := tensor.NewRNG(seed + 100)
	var flat []float32
	for s := 0; s < steps; s++ {
		x, labels := makeBatch(dataRNG, globalBatch)
		xs, ys := SplitBatch(x, labels, r.n)
		optim.ZeroGrads(net.Params())
		logits := net.Forward(xs[r.rank], true)
		_, grad := tensor.CrossEntropy(logits, ys[r.rank])
		net.Backward(grad)
		flat = net.GradVector(flat)
		if err := r.AllReduce(flat); err != nil {
			t.Errorf("rank %d step %d: %v", r.rank, s, err)
			return 0
		}
		net.SetGradVector(flat)
		opt.Step(net.Params())
	}
	return net.WeightsHash()
}

func TestRingTrainingMatchesSingleReplica(t *testing.T) {
	const seed, steps, batch = 42, 5, 16
	// Single-replica reference: same init, full batch each step.
	single := mlpConstructor(seed)()
	opt := optim.NewSGD(0.1)
	dataRNG := tensor.NewRNG(seed + 100)
	for s := 0; s < steps; s++ {
		x, labels := makeBatch(dataRNG, batch)
		graph.TrainClassifierStep(single, opt, x, labels, 0)
	}

	nets := make([]*graph.Network, 4)
	runRing(t, 4, CompressNone, 0, func(r *Ring) {
		net := mlpConstructor(seed)()
		wopt := optim.NewSGD(0.1)
		wrng := tensor.NewRNG(seed + 100)
		var flat []float32
		for s := 0; s < steps; s++ {
			x, labels := makeBatch(wrng, batch)
			xs, ys := SplitBatch(x, labels, 4)
			optim.ZeroGrads(net.Params())
			logits := net.Forward(xs[r.rank], true)
			_, grad := tensor.CrossEntropy(logits, ys[r.rank])
			net.Backward(grad)
			flat = net.GradVector(flat)
			if err := r.AllReduce(flat); err != nil {
				t.Errorf("rank %d: %v", r.rank, err)
				return
			}
			net.SetGradVector(flat)
			wopt.Step(net.Params())
		}
		nets[r.rank] = net
	})

	sp := nets[0].Params()
	for i, p := range single.Params() {
		if !tensor.Equal(p.Value, sp[i].Value, 1e-5) {
			t.Fatalf("parameter %s diverged between single-replica and ring training", p.Name)
		}
	}
}

func TestRingTrainingBitIdentical(t *testing.T) {
	for _, comp := range []Compression{CompressNone, CompressFP16, CompressInt8} {
		t.Run(comp.String(), func(t *testing.T) {
			run := func() []uint64 {
				hashes := make([]uint64, 3)
				runRing(t, 3, comp, 0, func(r *Ring) {
					hashes[r.rank] = ringTrain(t, r, 7, 6, 12)
				})
				return hashes
			}
			first := run()
			// Cross-worker: the all-gather ships exact bytes, so every
			// worker must finish with identical weights even under lossy
			// reduce-scatter compression.
			for rank, h := range first {
				if h != first[0] {
					t.Fatalf("rank %d hash %x != rank 0 hash %x", rank, h, first[0])
				}
			}
			// Run-to-run: fixed reduction order makes the whole run
			// reproducible bit-for-bit.
			second := run()
			if second[0] != first[0] {
				t.Fatalf("repeated run hash %x != first run %x", second[0], first[0])
			}
		})
	}
}

func TestRingWireBytesReflectCompression(t *testing.T) {
	const n, l = 2, 10000
	measure := func(comp Compression) int64 {
		var out int64
		runRing(t, n, comp, 0, func(r *Ring) {
			flat := make([]float32, l)
			for i := range flat {
				flat[i] = float32(i%13) - 6
			}
			if err := r.AllReduce(flat); err != nil {
				t.Errorf("rank %d: %v", r.rank, err)
			}
			if r.rank == 0 {
				_, out = r.WireBytes()
			}
		})
		return out
	}
	full := measure(CompressNone)
	int8 := measure(CompressInt8)
	// Per rank and round: (n-1)/n of the payload out per phase. Full
	// precision ships 4 B/elem both phases; int8 ships ~1 B/elem on the
	// reduce-scatter and 4 B/elem on the all-gather.
	wantFull := int64(2 * (n - 1) * (l / n) * 4)
	if full < wantFull || full > wantFull+4096 {
		t.Fatalf("full-precision wire bytes %d, want about %d", full, wantFull)
	}
	wantInt8 := int64((n - 1) * (l / n) * (1 + 4))
	if int8 < wantInt8 || int8 > wantInt8+4096 {
		t.Fatalf("int8 wire bytes %d, want about %d", int8, wantInt8)
	}
}

// smallLengths never fill a second piece, and l < n leaves chunks empty.
func smallLengths(int) []int { return []int{0, 1, 3, 7, 1000} }

// pieceLengths put a chunk boundary, or n of them, next to a piece
// boundary.
func pieceLengths(n int) []int {
	return []int{ringPiece - 1, ringPiece, ringPiece + 1, n*ringPiece + 5}
}

// ringRoundsHash runs two rounds of reduce on a fresh n-rank ring for
// n = 1…5 and each of lengths(n), with fresh inputs each round so the int8
// residuals carry over, and folds every rank's results into one FNV-1a
// hash. Ranks must end every round on the same bytes.
func ringRoundsHash(t *testing.T, comp Compression, lengths func(n int) []int, reduce func(r *Ring, flat []float32) error) uint64 {
	t.Helper()
	h := fnv.New64a()
	var b [4]byte
	for n := 1; n <= 5; n++ {
		for _, l := range lengths(n) {
			out := make([][]float32, n)
			runRing(t, n, comp, 0, func(r *Ring) {
				rng := tensor.NewRNG(uint64(100*n + r.rank))
				for round := 0; round < 2; round++ {
					flat := make([]float32, l)
					for i := range flat {
						flat[i] = float32(rng.Norm())
					}
					if err := reduce(r, flat); err != nil {
						t.Errorf("%d ranks, length %d, rank %d: %v", n, l, r.rank, err)
					}
					out[r.rank] = append(out[r.rank], flat...)
				}
			})
			for rank, o := range out {
				if !slices.Equal(o, out[0]) {
					t.Errorf("%s, %d ranks, length %d: rank %d ended on other bytes than rank 0", comp, n, l, rank)
				}
				for _, v := range o {
					binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
					_, _ = h.Write(b[:])
				}
			}
		}
	}
	return h.Sum64()
}

func allReduce(r *Ring, flat []float32) error { return r.AllReduce(flat) }

func TestRingSplitMatchesParentAllReduce(t *testing.T) {
	// ringRoundsHash over AllReduce on the commit before it split into a
	// reduce-scatter, the owner's 1/N and an all-gather: the owner scaling
	// its chunk once, piece by piece as it is reduced, must give the bytes
	// every rank computed for itself.
	want := map[Compression]uint64{
		CompressNone: 0x379d454aa3112bde,
		CompressFP16: 0xdc59fcf033540fcf,
		CompressInt8: 0xc242b7352774d592,
	}
	for _, comp := range []Compression{CompressNone, CompressFP16, CompressInt8} {
		if got := ringRoundsHash(t, comp, smallLengths, allReduce); got != want[comp] {
			t.Errorf("%s: results hash %#x, the parent's AllReduce gave %#x", comp, got, want[comp])
		}
	}
}

func TestRingPiecesMatchParentAllReduce(t *testing.T) {
	// ringRoundsHash over AllReduce at lengths whose chunks end next to a
	// piece boundary or span several pieces, recorded on 1e331d5, where a
	// hop moved its chunk whole.
	want := map[Compression]uint64{
		CompressNone: 0x89e06a345b8deb4e,
		CompressFP16: 0x257730f58ffad627,
		CompressInt8: 0xc49522531a46f67d,
	}
	for _, comp := range []Compression{CompressNone, CompressFP16, CompressInt8} {
		if got := ringRoundsHash(t, comp, pieceLengths, allReduce); got != want[comp] {
			t.Errorf("%s: results hash %#x, 1e331d5 gave %#x", comp, got, want[comp])
		}
	}
}

func TestRingStepMatchesParentCommit(t *testing.T) {
	// A training rank's round — gradients reduce-scattered, the Owned chunk
	// averaged and stepped by SGD, the weights all-gathered — for n = 1…5
	// over the small and piece-boundary lengths, l < n included (ranks
	// whose Owned chunk is empty step nothing), two rounds each. Every
	// rank's weights and gradients after the rounds fold into one hash,
	// recorded on 1e331d5, where the rank ran a whole reduce-scatter, the
	// 1/N pass, SGD on its shard and a whole all-gather in turn.
	want := map[Compression]uint64{
		CompressNone: 0xae5fdc1d759b420e,
		CompressFP16: 0xedfaeebe341f9263,
		CompressInt8: 0x5697c7a9bd01eea1,
	}
	all := func(n int) []int { return append(smallLengths(n), pieceLengths(n)...) }
	for _, comp := range []Compression{CompressNone, CompressFP16, CompressInt8} {
		h := fnv.New64a()
		var b [4]byte
		for n := 1; n <= 5; n++ {
			for _, l := range all(n) {
				weights, grads := make([][]float32, n), make([][]float32, n)
				runRing(t, n, comp, 0, func(r *Ring) {
					rng := tensor.NewRNG(uint64(100*n + r.rank))
					values := make([]float32, l)
					for i := range values {
						values[i] = float32(rng.Norm())
					}
					var flat []float32
					for round := 0; round < 2; round++ {
						flat = make([]float32, l)
						for i := range flat {
							flat[i] = float32(rng.Norm())
						}
						if err := r.round(flat, values, r.newShard(values, flat, optim.NewSGD(0.1))); err != nil {
							t.Errorf("%d ranks, length %d, rank %d: %v", n, l, r.rank, err)
						}
						grads[r.rank] = append(grads[r.rank], flat...)
					}
					weights[r.rank] = values
				})
				for rank := range weights {
					if !slices.Equal(weights[rank], weights[0]) {
						t.Errorf("%s, %d ranks, length %d: rank %d ended on other weights than rank 0", comp, n, l, rank)
					}
					for _, v := range append(weights[rank], grads[rank]...) {
						binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
						_, _ = h.Write(b[:])
					}
				}
			}
		}
		if got := h.Sum64(); got != want[comp] {
			t.Errorf("%s: weights and gradients hash %#x, 1e331d5 gave %#x", comp, got, want[comp])
		}
	}
}

func TestRingOwnedIsWhatReduceScatterCompletes(t *testing.T) {
	// Every element lies in exactly one rank's Owned range, and a round
	// that gathers into another buffer leaves that range of the reduced
	// vector holding the average of the full sum.
	const n, l = 3, 10
	owners := make([]int, l)
	runRing(t, n, CompressNone, 0, func(r *Ring) {
		flat := make([]float32, l)
		for i := range flat {
			flat[i] = float32(r.rank + 1)
		}
		if err := r.round(flat, make([]float32, l), nil); err != nil {
			t.Error(err)
			return
		}
		lo, hi := r.Owned(l)
		for i := lo; i < hi; i++ {
			owners[i]++
			if flat[i] != 2 {
				t.Errorf("rank %d owns element %d but holds %g, want the sum 6 over 3 ranks", r.rank, i, flat[i])
			}
		}
	})
	for i, k := range owners {
		if k != 1 {
			t.Errorf("element %d is owned by %d ranks", i, k)
		}
	}
}

// ringPins are the final weights of RunLocal ring runs (unthrottled,
// seed 1, LR 0.05, 20 steps, global batch 48) recorded on the commit
// before a ring rank's step became reduce-scatter, an update of its own
// shard and an all-gather of the weights; sse runs the ref bits.
var ringPins = []struct {
	workers   int
	comp      Compression
	model     string
	ref, avx2 uint64
}{
	{2, CompressNone, "mlp-wide", 0x2df27b67e37a7100, 0x45b48368250cb4af},
	{2, CompressNone, "mlp", 0x75a28a0643319d11, 0xab218deec40381a3},
	{2, CompressNone, "cnn", 0x70d2b604b390da21, 0xd8ce669de8c25b7f},
	{2, CompressFP16, "mlp-wide", 0xfe1567bac2739c26, 0x7ee63d90ab6581ba},
	{2, CompressInt8, "mlp-wide", 0x10d2970dfa9dc4b5, 0xef01315a1a439ece},
	{3, CompressNone, "mlp-wide", 0x59e250347d9eefa5, 0xf8c4ef1138caad04},
}

func TestRingRunMatchesParentCommit(t *testing.T) {
	tiers := []string{tensor.BitExactGemmTier()}
	if slices.Contains(tensor.GemmKernelTiers(), "avx2") {
		tiers = append(tiers, "avx2")
	}
	for _, tier := range tiers {
		prev, err := tensor.SetGemmKernelTier(tier)
		if err != nil {
			t.Fatal(err)
		}
		for _, pin := range ringPins {
			cfg := CoordConfig{Workers: pin.workers, Strategy: RunRing, Compression: pin.comp, Model: pin.model, Seed: 1, LR: 0.05}
			want := pin.ref
			if tier == "avx2" {
				want = pin.avx2
			}
			if s := runCoordinated(t, cfg, 20, 48, 0); s.Hash != want {
				t.Errorf("%s: %d ranks, %s, %s: weights %#x, parent commit had %#x", tier, pin.workers, pin.comp, pin.model, s.Hash, want)
			}
		}
		if _, err := tensor.SetGemmKernelTier(prev); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRingErrorPathsEndTheirSpans(t *testing.T) {
	rings, err := NewLocalRings(2, CompressInt8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, r := range rings {
			r.Close()
		}
	}()
	// One good round sizes both quantizers.
	runOn := func(fn func(r *Ring) error) {
		var wg sync.WaitGroup
		for _, r := range rings {
			wg.Add(1)
			go func(r *Ring) {
				defer wg.Done()
				if err := fn(r); err != nil {
					t.Error(err)
				}
			}(r)
		}
		wg.Wait()
	}
	runOn(func(r *Ring) error { return r.AllReduce(make([]float32, 8)) })

	prof.EnableWithMaxRecords(1 << 10)
	defer prof.Disable()
	// A span left open stays the ambient parent: the probe opened after the
	// failed call would hang off it instead of off outer.
	fail := func(what string, call func() error) {
		outer := prof.Begin(prof.CatPhase, "test.outer")
		if err := call(); err == nil {
			t.Fatalf("%s: want an error", what)
		}
		probe := prof.Begin(prof.CatPhase, "test.probe")
		probe.End()
		outer.End()
		var outerID, probeParent uint64
		for _, rec := range prof.Current(prof.Meta{}).Ranks[0].Records {
			switch rec.Name {
			case "test.outer":
				outerID = rec.ID
			case "test.probe":
				probeParent = rec.Parent
			}
		}
		if probeParent != outerID {
			t.Errorf("%s: left a span open (a later span's parent is %d, want %d)", what, probeParent, outerID)
		}
	}
	fail("int8 length change", func() error { return rings[0].AllReduce(make([]float32, 9)) })
	rings[1].Close()
	fail("all-reduce from a closed peer", func() error { return rings[0].AllReduce(make([]float32, 8)) })
	fail("rank step from a closed peer", func() error {
		values, grads := make([]float32, 8), make([]float32, 8)
		err := rings[0].round(grads, values, rings[0].newShard(values, grads, optim.NewSGD(0.1)))
		if !errors.Is(err, errRingCut) {
			t.Errorf("rank step from a closed peer: %v, want it named %q", err, errRingCut)
		}
		return err
	})
}
