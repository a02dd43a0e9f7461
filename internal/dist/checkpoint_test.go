package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"tbd/internal/graph"
	"tbd/internal/layers"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// checkpointOf writes n at step and returns the bytes.
func checkpointOf(t testing.TB, n *graph.Network, step int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, n, step); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// trainMLP takes steps SGD steps on n over batches drawn from rng.
func trainMLP(n *graph.Network, opt optim.Optimizer, rng *tensor.RNG, steps int) {
	for i := 0; i < steps; i++ {
		x, y := makeBatch(rng, 16)
		graph.TrainClassifierStep(n, opt, x, y, 0)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	net := mlpConstructor(10)()
	trainMLP(net, optim.NewSGD(0.1), tensor.NewRNG(10), 20) // weights worth restoring
	ckpt := checkpointOf(t, net, 20)
	// The checkpoint is the weights frame a server at version 20 sends.
	_, length, err := weightsLayout(net.Params())
	if err != nil {
		t.Fatal(err)
	}
	if h, err := readHeader(bytes.NewReader(ckpt)); err != nil || h.kind != statusWeights || h.version != 20 ||
		int(h.length) != length || len(ckpt) != psHeaderLen+length {
		t.Fatalf("checkpoint header %+v (err %v) over %d bytes, want a %d-byte weights payload at version 20", h, err, len(ckpt), length)
	}
	restored := mlpConstructor(999)() // a different init
	step, err := LoadCheckpoint(bytes.NewReader(ckpt), restored)
	if err != nil {
		t.Fatal(err)
	}
	if step != 20 {
		t.Fatalf("restored step %d, want 20", step)
	}
	if restored.WeightsHash() != net.WeightsHash() {
		t.Fatal("restored weights differ from the saved ones")
	}
}

func TestCheckpointResumeEquivalence(t *testing.T) {
	// Training 40 steps straight equals training 20, checkpointing,
	// restoring into a fresh network, and training 20 more on the same
	// data stream: SGD keeps no state, so the resume is bit-exact.
	straight := mlpConstructor(1)()
	trainMLP(straight, optim.NewSGD(0.1), tensor.NewRNG(77), 40)

	phase1 := mlpConstructor(1)()
	data := tensor.NewRNG(77)
	trainMLP(phase1, optim.NewSGD(0.1), data, 20)
	resumed := mlpConstructor(2)()
	if _, err := LoadCheckpoint(bytes.NewReader(checkpointOf(t, phase1, 20)), resumed); err != nil {
		t.Fatal(err)
	}
	trainMLP(resumed, optim.NewSGD(0.1), data, 20)
	if resumed.WeightsHash() != straight.WeightsHash() {
		t.Fatal("the resumed run diverged from the straight one")
	}
}

func TestWriteCheckpointRefusesAStepOutsideTheVersionField(t *testing.T) {
	for _, step := range []int64{-1, 1 << 31} {
		if err := WriteCheckpoint(io.Discard, mlpConstructor(1)(), step); err == nil {
			t.Errorf("step %d written", step)
		}
	}
}

// withHeader is ckpt with its header rewritten.
func withHeader(ckpt []byte, kind byte, version, length int) []byte {
	b := slices.Clone(ckpt)
	putHeader(b, kind, 0, version, length)
	return b
}

// hostileCheckpoints are checkpoints that the network target builds
// must refuse, each with the error that names the refusal.
func hostileCheckpoints(t testing.TB) map[string]struct {
	ckpt   []byte
	target func() *graph.Network
	want   error
} {
	mlp := mlpConstructor(21)
	ckpt := checkpointOf(t, mlpConstructor(22)(), 7) // weights a refused load would visibly write
	length := len(ckpt) - psHeaderLen
	gob, err := os.ReadFile("testdata/gob_checkpoint.bin") // mlp(), as the gob-era graph.SaveCheckpoint wrote it
	if err != nil {
		t.Fatal(err)
	}
	huge := slices.Clone(ckpt)
	binary.LittleEndian.PutUint32(huge[12:], math.MaxUint32)
	rng := tensor.NewRNG(3)
	first := graph.New("mlp", layers.NewSequential("mlp", layers.NewDense("fc1", 4, 16, rng)))
	narrow := graph.New("mlp", layers.NewSequential("mlp",
		layers.NewDense("fc1", 4, 8, rng), layers.NewReLU("relu"), layers.NewDense("fc2", 8, 3, rng)))
	renamed := graph.New("mlp", layers.NewSequential("mlp",
		layers.NewDense("fc1", 4, 16, rng), layers.NewReLU("relu"), layers.NewDense("fc9", 16, 3, rng)))
	wide := graph.New("net", layers.NewDenseNoBias("fc", 2, 8, rng))
	square := func() *graph.Network { return graph.New("net", layers.NewDenseNoBias("fc", 4, 4, tensor.NewRNG(4))) }
	return map[string]struct {
		ckpt   []byte
		target func() *graph.Network
		want   error
	}{
		"gob-era stream":       {gob, mlp, errBadMagic},
		"empty":                {nil, mlp, io.ErrUnexpectedEOF},
		"cut in the header":    {ckpt[:9], mlp, io.ErrUnexpectedEOF},
		"cut mid-table":        {ckpt[:psHeaderLen+7], mlp, io.ErrUnexpectedEOF},
		"cut mid-weights":      {ckpt[:len(ckpt)-5], mlp, io.ErrUnexpectedEOF},
		"a request kind":       {withHeader(ckpt, kindPush, 7, length), mlp, errUnknownKind},
		"negative step":        {withHeader(ckpt, statusWeights, -1, length), mlp, errNegativeStep},
		"length one over":      {withHeader(ckpt, statusWeights, 7, length+1), mlp, errBadLength},
		"length one under":     {withHeader(ckpt, statusWeights, 7, length-1), mlp, errBadLength},
		"4 GiB length":         {huge, mlp, errBadLength},
		"trailing byte":        {append(slices.Clone(ckpt), 0), mlp, errTrailingBytes},
		"wrong tensor count":   {checkpointOf(t, first, 7), mlp, errLayoutMismatch},
		"mismatched network":   {checkpointOf(t, narrow, 7), mlp, errLayoutMismatch},
		"renamed parameter":    {checkpointOf(t, renamed, 7), mlp, errLayoutMismatch},
		"same-numel reshape":   {checkpointOf(t, wide, 7), square, errLayoutMismatch},
		"a 2 GiB tensor count": {withCount(ckpt, 1<<31), mlp, errBadLength},
	}
}

// withCount is ckpt with its layout table's tensor count replaced.
func withCount(ckpt []byte, n uint32) []byte {
	b := slices.Clone(ckpt)
	binary.LittleEndian.PutUint32(b[psHeaderLen:], n)
	return b
}

func TestCheckpointLoadRefusals(t *testing.T) {
	for name, c := range hostileCheckpoints(t) {
		t.Run(name, func(t *testing.T) {
			n := c.target()
			before := n.WeightsHash()
			if _, err := LoadCheckpoint(bytes.NewReader(c.ckpt), n); !errors.Is(err, c.want) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
			if n.WeightsHash() != before {
				t.Fatal("a refused checkpoint changed the network")
			}
		})
	}
}

// TestCheckpointLoadRefusesAFrozenNetwork: a frozen network's weight
// matrices are no longer parameters, so a checkpoint, even one written
// from the same model before freezing, is refused by name before a byte
// is read, and the network serves exactly what it served before.
func TestCheckpointLoadRefusesAFrozenNetwork(t *testing.T) {
	for _, half := range []bool{false, true} {
		n := mlpConstructor(10)()
		ckpt := checkpointOf(t, mlpConstructor(11)(), 3)
		if !n.Freeze(half) || !n.Frozen() {
			t.Fatal("mlp did not freeze")
		}
		x, _ := makeBatch(tensor.NewRNG(12), 9)
		before := slices.Clone(n.Forward(x, false).Data())
		hash := n.WeightsHash()
		r := bytes.NewReader(ckpt)
		if _, err := LoadCheckpoint(r, n); !errors.Is(err, errFrozenNetwork) {
			t.Fatalf("half=%v: got %v, want %v", half, err, errFrozenNetwork)
		}
		if r.Len() != len(ckpt) {
			t.Fatalf("half=%v: %d bytes read before the refusal", half, len(ckpt)-r.Len())
		}
		if n.WeightsHash() != hash || !slices.Equal(n.Forward(x, false).Data(), before) {
			t.Fatalf("half=%v: a refused checkpoint changed the frozen network", half)
		}
	}
}

// FuzzCheckpointLoad throws byte streams at LoadCheckpoint into an
// mlp-wide network: whatever arrives, it loads the whole network or
// leaves it as it was, and allocates no more than the model and a
// constant account for. The seeds added below are a whole mlp-wide
// checkpoint and the refusals of TestCheckpointLoadRefusals;
// testdata/fuzz/FuzzCheckpointLoad holds mlp-wide frames cut or bent
// inside the layout table, which the PS client's reader shares.
func FuzzCheckpointLoad(f *testing.F) {
	model, err := RunModelByName("mlp-wide")
	if err != nil {
		f.Fatal(err)
	}
	net := model.Build(1)
	weights := uint64(4 * net.GradElems())
	f.Add(checkpointOf(f, net, 3))
	for _, c := range hostileCheckpoints(f) {
		f.Add(c.ckpt)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		grew := uint64(math.MaxUint64)
		for range windows {
			before := net.WeightsHash()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, err := LoadCheckpoint(bytes.NewReader(data), net)
			runtime.ReadMemStats(&m1)
			if err != nil && net.WeightsHash() != before {
				t.Fatalf("refused (%v), yet the network changed", err)
			}
			grew = min(grew, m1.TotalAlloc-m0.TotalAlloc)
		}
		// One copy of the weights, the reader, the layout table (at most
		// psMaxLayout) and slack for the fuzzing engine. A buffer sized
		// from a length or count field would be gigabytes.
		if limit := weights + 4<<20; grew > limit {
			t.Fatalf("%d input bytes made the loader allocate %d, limit %d", len(data), grew, limit)
		}
	})
}
