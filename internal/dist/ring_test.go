package dist

import (
	"encoding/binary"
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
		flat := append([]float32(nil), inputs[r.Rank()]...)
		if err := r.AllReduce(flat); err != nil {
			t.Errorf("rank %d: %v", r.Rank(), err)
			return
		}
		results[r.Rank()] = flat
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
		xs, ys := SplitBatch(x, labels, r.Workers())
		optim.ZeroGrads(net.Params())
		logits := net.Forward(xs[r.Rank()], true)
		_, grad := tensor.CrossEntropy(logits, ys[r.Rank()])
		net.Backward(grad)
		flat = net.GradVector(flat)
		if err := r.AllReduce(flat); err != nil {
			t.Errorf("rank %d step %d: %v", r.Rank(), s, err)
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
			logits := net.Forward(xs[r.Rank()], true)
			_, grad := tensor.CrossEntropy(logits, ys[r.Rank()])
			net.Backward(grad)
			flat = net.GradVector(flat)
			if err := r.AllReduce(flat); err != nil {
				t.Errorf("rank %d: %v", r.Rank(), err)
				return
			}
			net.SetGradVector(flat)
			wopt.Step(net.Params())
		}
		nets[r.Rank()] = net
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
					hashes[r.Rank()] = ringTrain(t, r, 7, 6, 12)
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
				t.Errorf("rank %d: %v", r.Rank(), err)
			}
			if r.Rank() == 0 {
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

// ringRoundsHash runs two rounds of reduce on a fresh n-rank ring for
// n = 1…5 and lengths 0, 1, 3, 7 and 1000 (l < n leaves chunks empty),
// with fresh inputs each round so the int8 residuals carry over, and folds
// every rank's results into one FNV-1a hash. Ranks must end every round on
// the same bytes.
func ringRoundsHash(t *testing.T, comp Compression, reduce func(r *Ring, flat []float32) error) uint64 {
	t.Helper()
	h := fnv.New64a()
	var b [4]byte
	for n := 1; n <= 5; n++ {
		for _, l := range []int{0, 1, 3, 7, 1000} {
			out := make([][]float32, n)
			runRing(t, n, comp, 0, func(r *Ring) {
				rng := tensor.NewRNG(uint64(100*n + r.Rank()))
				for round := 0; round < 2; round++ {
					flat := make([]float32, l)
					for i := range flat {
						flat[i] = float32(rng.Norm())
					}
					if err := reduce(r, flat); err != nil {
						t.Errorf("%d ranks, length %d, rank %d: %v", n, l, r.Rank(), err)
					}
					out[r.Rank()] = append(out[r.Rank()], flat...)
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

func TestRingSplitMatchesParentAllReduce(t *testing.T) {
	// ringRoundsHash over AllReduce on the commit before it split into
	// ReduceScatter, the owner's 1/N and AllGather: the owner scaling its
	// chunk once must give the bytes every rank computed for itself.
	want := map[Compression]uint64{
		CompressNone: 0x379d454aa3112bde,
		CompressFP16: 0xdc59fcf033540fcf,
		CompressInt8: 0xc242b7352774d592,
	}
	split := func(r *Ring, flat []float32) error {
		if err := r.ReduceScatter(flat); err != nil {
			return err
		}
		r.averageOwned(flat)
		return r.AllGather(flat)
	}
	for _, comp := range []Compression{CompressNone, CompressFP16, CompressInt8} {
		if got := ringRoundsHash(t, comp, split); got != want[comp] {
			t.Errorf("%s: results hash %#x, the parent's AllReduce gave %#x", comp, got, want[comp])
		}
	}
}

func TestRingOwnedIsWhatReduceScatterCompletes(t *testing.T) {
	// Every element lies in exactly one rank's Owned range, and after
	// ReduceScatter that range holds the full sum.
	const n, l = 3, 10
	owners := make([]int, l)
	runRing(t, n, CompressNone, 0, func(r *Ring) {
		flat := make([]float32, l)
		for i := range flat {
			flat[i] = float32(r.Rank() + 1)
		}
		if err := r.ReduceScatter(flat); err != nil {
			t.Error(err)
			return
		}
		lo, hi := r.Owned(l)
		for i := lo; i < hi; i++ {
			owners[i]++
			if flat[i] != 6 {
				t.Errorf("rank %d owns element %d but holds %g, want the sum 6", r.Rank(), i, flat[i])
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
	runOn(func(r *Ring) error { return r.ReduceScatter(make([]float32, 8)) })

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
		for _, rec := range prof.Records() {
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
	fail("int8 length change", func() error { return rings[0].ReduceScatter(make([]float32, 9)) })
	rings[1].Close()
	fail("reduce-scatter from a closed peer", func() error { return rings[0].ReduceScatter(make([]float32, 8)) })
	fail("all-gather from a closed peer", func() error { return rings[0].AllGather(make([]float32, 8)) })
}
