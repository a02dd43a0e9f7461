package dist

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"strconv"
	"strings"
	"testing"

	"tbd/internal/graph"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

func TestCompressionNames(t *testing.T) {
	cases := []struct {
		c    Compression
		name string
	}{{CompressNone, "full"}, {CompressFP16, "fp16"}, {CompressInt8, "int8"}}
	for _, c := range cases {
		if c.c.String() != c.name {
			t.Fatalf("%d.String() = %q, want %q", int(c.c), c.c.String(), c.name)
		}
		got, err := ParseCompression(c.name)
		if err != nil || got != c.c {
			t.Fatalf("ParseCompression(%q) = %v, %v", c.name, got, err)
		}
	}
	if _, err := ParseCompression("zfp"); err == nil {
		t.Fatal("want error for unknown compression")
	}
	if CompressNone.WireBytesPerElem() != 4 || CompressFP16.WireBytesPerElem() != 2 || CompressInt8.WireBytesPerElem() != 1 {
		t.Fatal("wire bytes per element wrong")
	}
}

func TestWireF32RoundTripAndAdd(t *testing.T) {
	vals := []float32{1.5, -2.25, 0, 3e-8, -1e20}
	var b wireBuf
	var buf bytes.Buffer
	if err := b.writeF32(&buf, vals); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, len(vals))
	if err := b.readF32(bytes.NewReader(buf.Bytes()), got); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("f32 round trip: got[%d] = %g, want %g", i, got[i], vals[i])
		}
	}
	// The Add variant accumulates: reading the same frame twice doubles.
	acc := make([]float32, len(vals))
	for k := 0; k < 2; k++ {
		if err := b.readF32Add(bytes.NewReader(buf.Bytes()), acc); err != nil {
			t.Fatal(err)
		}
	}
	for i := range vals {
		if acc[i] != 2*vals[i] {
			t.Fatalf("readF32Add: acc[%d] = %g, want %g", i, acc[i], 2*vals[i])
		}
	}
}

func TestWireF32EmptyChunks(t *testing.T) {
	// A ring over fewer scalars than ranks sends and receives empty chunks.
	var b wireBuf
	var buf bytes.Buffer
	if err := b.writeF32(&buf, nil); err != nil || buf.Len() != 0 {
		t.Fatalf("empty write: %d bytes, %v", buf.Len(), err)
	}
	if err := b.readF32(&buf, []float32{}); err != nil {
		t.Fatal(err)
	}
	if err := b.readF32Add(&buf, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFP32CodecIsTheTensorMemory(t *testing.T) {
	// The only unsafe in the package is the codec's view, and no fp32 path
	// converts element by element any more.
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "unsafe" && name != "wire_le.go" {
					t.Errorf("%s imports unsafe; only the codec's wire_le.go may", name)
				}
			}
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch loop := n.(type) {
				case *ast.ForStmt:
					body = loop.Body
				case *ast.RangeStmt:
					body = loop.Body
				default:
					return true
				}
				ast.Inspect(body, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Float32bits" || sel.Sel.Name == "Float32frombits") {
						t.Errorf("%s: %s inside a loop — fp32 frames are the tensors' own bytes (f32Bytes)", fset.Position(sel.Pos()), sel.Sel.Name)
					}
					return true
				})
				return false
			})
		}
	}
}

func TestWireF16RoundTripAdd(t *testing.T) {
	vals := []float32{1, -0.5, 0.25, 0}
	var b wireBuf
	var buf bytes.Buffer
	if err := b.writeF16(&buf, vals); err != nil {
		t.Fatal(err)
	}
	acc := make([]float32, len(vals))
	if err := b.readF16Add(bytes.NewReader(buf.Bytes()), acc); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		// These are exactly representable halves.
		if acc[i] != vals[i] {
			t.Fatalf("f16 round trip: acc[%d] = %g, want %g", i, acc[i], vals[i])
		}
	}
}

func TestInt8ExactDequantEdges(t *testing.T) {
	t.Run("all-zeros", func(t *testing.T) {
		z := NewInt8Quantizer(5)
		vals := make([]float32, 5)
		out := make([]byte, 5)
		if scale := z.QuantizeAt(0, vals, out); scale != 0 {
			t.Fatalf("zero vector scale %g, want 0", scale)
		}
		dst := make([]float32, 5)
		DequantInt8Slice(0, out, dst)
		for i, v := range dst {
			if v != 0 {
				t.Fatalf("zero vector decoded dst[%d] = %g", i, v)
			}
		}
	})
	t.Run("plus-minus-max", func(t *testing.T) {
		// scale = maxAbs and level 127 decodes as scale exactly, so the
		// extremes survive the round trip bit-for-bit.
		z := NewInt8Quantizer(4)
		vals := []float32{3.5, -3.5, 0, 3.5}
		out := make([]byte, 4)
		scale := z.QuantizeAt(0, vals, out)
		if scale != 3.5 {
			t.Fatalf("scale %g, want 3.5", scale)
		}
		for i, v := range vals {
			if got := DequantInt8(scale, out[i]); got != v {
				t.Fatalf("edge value %g decoded as %g", v, got)
			}
		}
		// And the residual for exactly-representable slots is zero.
		for i, r := range z.residual {
			if r != 0 {
				t.Fatalf("residual[%d] = %g, want 0 for exact values", i, r)
			}
		}
	})
	t.Run("single-element", func(t *testing.T) {
		z := NewInt8Quantizer(1)
		out := make([]byte, 1)
		scale := z.QuantizeAt(0, []float32{-0.125}, out)
		if got := DequantInt8(scale, out[0]); got != -0.125 {
			t.Fatalf("single element decoded as %g, want -0.125", got)
		}
	})
}

func TestInt8WireRoundTrip(t *testing.T) {
	z := NewInt8Quantizer(6)
	vals := []float32{0.9, -0.3, 0.1, 0, -0.9, 0.45}
	q := make([]byte, len(vals))
	scale := z.QuantizeAt(0, vals, q)

	var b wireBuf
	var buf bytes.Buffer
	if err := b.writeInt8(&buf, scale, q); err != nil {
		t.Fatal(err)
	}
	acc := make([]float32, len(vals))
	rd := bytes.NewReader(buf.Bytes())
	got, err := b.readScale(rd)
	if err != nil || got != scale {
		t.Fatalf("int8 wire: scale %g, %v; want %g", got, err, scale)
	}
	// The ring reads one message's levels in pieces.
	if err := b.readLevelsAdd(rd, got, acc[:4]); err != nil {
		t.Fatal(err)
	}
	if err := b.readLevelsAdd(rd, got, acc[4:]); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		diff := float64(acc[i] - vals[i])
		if math.Abs(diff) > float64(scale)/127+1e-7 {
			t.Fatalf("int8 wire: acc[%d] = %g, want %g within one level", i, acc[i], vals[i])
		}
	}
}

func TestInt8ErrorFeedbackCompensates(t *testing.T) {
	// A value that does not land on a quantization level loses a little
	// every message — but error feedback carries the loss forward, so the
	// CUMULATIVE decoded sum tracks the true sum to within one level,
	// no matter how many rounds pass. This is the property that keeps the
	// SGD trajectory honest.
	z := NewInt8Quantizer(2)
	vals := []float32{0.003, 1} // 0.003 is ~0.38 levels at scale 1
	q := make([]byte, 2)
	var decoded, truth float64
	for round := 0; round < 1000; round++ {
		scale := z.QuantizeAt(0, vals, q)
		decoded += float64(DequantInt8(scale, q[0]))
		truth += float64(vals[0])
	}
	if math.Abs(decoded-truth) > 1.0/127 {
		t.Fatalf("cumulative decoded %g drifted from true %g beyond one level", decoded, truth)
	}
	// Without feedback the same stream decodes to zero forever: 0.38
	// levels rounds to level 0 every time.
	if decoded == 0 {
		t.Fatal("error feedback never fired")
	}
}

func TestInt8QuantizeValidates(t *testing.T) {
	z := NewInt8Quantizer(4)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("size mismatch", func() { z.QuantizeAt(0, make([]float32, 3), make([]byte, 2)) })
	mustPanic("range overflow", func() { z.QuantizeAt(2, make([]float32, 3), make([]byte, 3)) })
	mustPanic("dequant mismatch", func() { DequantInt8Slice(1, make([]byte, 2), make([]float32, 3)) })
}

// trainCompressed runs `steps` of SGD where each step's gradient vector
// passes through quantize→dequantize before the update (comp == int8),
// or is applied untouched (comp == none).
func trainCompressed(seed uint64, steps int, compress bool) (*graph.Network, float32) {
	net := mlpConstructor(seed)()
	opt := optim.NewSGD(0.1)
	dataRNG := tensor.NewRNG(seed + 1)
	var z *Int8Quantizer
	var flat []float32
	var q []byte
	var last float32
	for s := 0; s < steps; s++ {
		x, labels := makeBatch(dataRNG, 16)
		optim.ZeroGrads(net.Params())
		logits := net.Forward(x, true)
		loss, grad := tensor.CrossEntropy(logits, labels)
		net.Backward(grad)
		flat = net.GradVector(flat)
		if compress {
			if z == nil {
				z = NewInt8Quantizer(len(flat))
				q = make([]byte, len(flat))
			}
			scale := z.QuantizeAt(0, flat, q)
			DequantInt8Slice(scale, q, flat)
			net.SetGradVector(flat)
		}
		opt.Step(net.Params())
		last = loss
	}
	return net, last
}

func TestInt8TrajectoryTracksFullPrecision(t *testing.T) {
	// Satellite acceptance: with error feedback, a long int8-compressed
	// SGD run stays within tolerance of full precision on a small MLP.
	// Documented tolerance: after 300 steps the compressed run's final
	// loss is within 0.05 absolute of the full-precision run, and both
	// converge well below the initial loss.
	const steps = 300
	_, fullLoss := trainCompressed(11, steps, false)
	_, int8Loss := trainCompressed(11, steps, true)
	_, startLoss := trainCompressed(11, 1, false)

	if fullLoss >= startLoss/3 {
		t.Fatalf("full-precision run failed to converge: %.4f -> %.4f", startLoss, fullLoss)
	}
	if int8Loss >= startLoss/3 {
		t.Fatalf("int8 run failed to converge: %.4f -> %.4f", startLoss, int8Loss)
	}
	if diff := math.Abs(float64(int8Loss - fullLoss)); diff > 0.05 {
		t.Fatalf("int8 final loss %.4f vs full %.4f: drift %.4f exceeds 0.05", int8Loss, fullLoss, diff)
	}
}

// WireBytesPerElem returns the payload bytes one gradient scalar costs
// under this encoding (excluding the constant per-message scale header).
func (c Compression) WireBytesPerElem() int {
	switch c {
	case CompressFP16:
		return 2
	case CompressInt8:
		return 1
	}
	return 4
}
