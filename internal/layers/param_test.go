package layers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"strings"
	"testing"

	"tbd/internal/prof"
	"tbd/internal/tensor"
)

const negZeroBits = 0x80000000

var zero32 float32 // a variable, so 0 + x is computed at run time

// specials are gradients whose bits a copy and an add to zero could
// treat differently.
func specials() []float32 {
	negZero := float32(math.Copysign(0, -1))
	return []float32{1.5, -2, 0, negZero, float32(math.Inf(1)), float32(math.NaN()), math.SmallestNonzeroFloat32, negZero}
}

func bitsOf(v float32) uint32 { return math.Float32bits(v) }

func requireSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, v := range got.Data() {
		if w := want.Data()[i]; bitsOf(v) != bitsOf(w) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, v, bitsOf(v), w, bitsOf(w))
		}
	}
}

func TestParamFirstWriteLandsInGrad(t *testing.T) {
	g := specials()
	p := NewParam("p", tensor.New(len(g)))
	p.Grad.Fill(7)
	p.ZeroGrad()
	for i, v := range p.Grad.Data() {
		if bitsOf(v) != 0 {
			t.Fatalf("Grad[%d] = %v straight after ZeroGrad: ZeroGrad must still zero eagerly", i, v)
		}
	}
	p.AddGrad(tensor.FromSlice(append([]float32(nil), g...), len(g)))
	for i, got := range p.Grad.Data() {
		old := zero32 + g[i] // what adding to the zeroed Grad gave
		switch {
		case bitsOf(g[i]) == negZeroBits:
			// The one difference: 0 + -0 is +0, a copy keeps -0. Equal under ==.
			if bitsOf(got) != negZeroBits || bitsOf(old) != 0 || got != old {
				t.Errorf("Grad[%d]: got %#x, the add gave %#x; want -0 against +0", i, bitsOf(got), bitsOf(old))
			}
		case bitsOf(got) != bitsOf(old):
			t.Errorf("Grad[%d] = %v (%#x), the add gave %v (%#x)", i, got, bitsOf(got), old, bitsOf(old))
		}
	}
}

func TestParamLaterWritesAdd(t *testing.T) {
	g1 := specials()
	g2 := []float32{0.25, 2, float32(math.Copysign(0, -1)), float32(math.Copysign(0, -1)), 1, 1, 3, 5}
	write := func(p *Param, g []float32) {
		p.AddGrad(tensor.FromSlice(append([]float32(nil), g...), len(g)))
	}
	check := func(what string, p *Param) {
		t.Helper()
		for i, got := range p.Grad.Data() {
			old := (zero32 + g1[i]) + g2[i]
			if old == 0 {
				if got != 0 {
					t.Errorf("%s: Grad[%d] = %v, want a zero", what, i, got)
				}
			} else if bitsOf(got) != bitsOf(old) {
				t.Errorf("%s: Grad[%d] = %v (%#x), want (0+g1)+g2 = %v (%#x)", what, i, got, bitsOf(got), old, bitsOf(old))
			}
		}
	}
	// Two writes after one ZeroGrad: micro-batches, timesteps, two critic
	// passes, a parameter two layers share.
	p := NewParam("p", tensor.New(len(g1)))
	p.ZeroGrad()
	write(p, g1)
	write(p, g2)
	check("zero, write, write", p)
	// A parameter nobody zeroed accumulates from New's zeros.
	p = NewParam("p", tensor.New(len(g1)))
	write(p, g1)
	write(p, g2)
	check("write, write", p)
	// An element-wise writer and AddGrad on one parameter in one step (a
	// tied embedding and projection weight), in either order.
	p.ZeroGrad()
	for i, v := range g1 {
		p.gradAccum()[i] += v
	}
	write(p, g2)
	check("accessor, write", p)
	p.ZeroGrad()
	write(p, g1)
	for i, v := range g2 {
		p.gradAccum()[i] += v
	}
	check("write, accessor", p)
}

func TestParamAddGradTransA(t *testing.T) {
	defer tensor.SetDebugPoisonReleased(tensor.SetDebugPoisonReleased(true))
	rng := tensor.NewRNG(61)
	a1, b1 := tensor.RandNormal(rng, 0, 1, 9, 20), tensor.RandNormal(rng, 0, 1, 9, 12)
	a2, b2 := tensor.RandNormal(rng, 0, 1, 5, 20), tensor.RandNormal(rng, 0, 1, 5, 12)
	want := tensor.MatMulTransA(a1, b1)
	p := NewParam("p", tensor.New(20, 12))
	p.ZeroGrad()
	p.AddGradTransA(a1, b1)
	requireSameBits(t, "first write", p.Grad, want)
	p.AddGradTransA(a2, b2)
	tensor.AddInPlace(want, tensor.MatMulTransA(a2, b2))
	requireSameBits(t, "second write", p.Grad, want)
}

type backwardCase struct {
	name  string
	build func() Layer
	x     func(*tensor.RNG) *tensor.Tensor
}

// backwardCases are layers a network can start with: the two that skip
// their input gradient, containers that pass the request down, and three
// that have to fall back to Backward.
func backwardCases() []backwardCase {
	flat := func(rng *tensor.RNG) *tensor.Tensor { return tensor.RandNormal(rng, 0, 1, 4, 8) }
	img := func(rng *tensor.RNG) *tensor.Tensor { return tensor.RandNormal(rng, 0, 1, 2, 3, 6, 6) }
	ids := func(rng *tensor.RNG) *tensor.Tensor {
		x := tensor.New(2, 5)
		for i := range x.Data() {
			x.Data()[i] = float32(rng.Intn(6))
		}
		return x
	}
	seeded := func(build func(rng *tensor.RNG) Layer) func() Layer {
		return func() Layer { return build(tensor.NewRNG(62)) }
	}
	return []backwardCase{
		{"dense", seeded(func(rng *tensor.RNG) Layer { return NewDenseAct("fc", 8, 5, tensor.ActReLU, rng) }), flat},
		{"embedding", seeded(func(rng *tensor.RNG) Layer {
			return NewSequential("seq", NewEmbedding("emb", 6, 4, rng), NewLSTM("lstm", 4, 4, rng), NewDense("proj", 4, 3, rng))
		}), ids},
		{"nested", seeded(func(rng *tensor.RNG) Layer {
			return NewSequential("outer",
				NewSequential("inner", NewDense("fc1", 8, 8, rng), NewReLU("act")),
				NewDense("fc2", 8, 3, rng))
		}), flat},
		{"no-method", seeded(func(rng *tensor.RNG) Layer {
			return NewSequential("seq", NewLayerNorm("ln", 8), NewDense("fc", 8, 3, rng))
		}), flat},
		{"conv", seeded(func(rng *tensor.RNG) Layer { return NewConv2DAct("conv", 3, 4, 3, 1, 1, tensor.ActReLU, rng) }), img},
		{"residual", seeded(func(rng *tensor.RNG) Layer {
			return NewSequential("seq", NewResidual("res", NewDense("body", 8, 8, rng), nil), NewDense("fc", 8, 3, rng))
		}), flat},
	}
}

// TestBackwardParamsMatchesBackward runs twin layers through three steps,
// one always with Backward, the other with BackwardParams in the middle
// step: parameter gradients agree bit for bit at every step, the backward
// spans are the same, and the full Backward after the parameters-only one
// returns the input gradient the twin returns (no stale buffer released
// twice, none read after release).
func TestBackwardParamsMatchesBackward(t *testing.T) {
	defer tensor.SetDebugPoisonReleased(tensor.SetDebugPoisonReleased(true))
	backwardSpans := func(run func()) []string {
		prof.Enable()
		run()
		prof.Disable()
		var names []string
		for _, r := range prof.Records() {
			if r.Cat == prof.CatBackward {
				names = append(names, r.Name)
			}
		}
		return names
	}
	for _, c := range backwardCases() {
		rng := tensor.NewRNG(63)
		full, lean := c.build(), c.build()
		for step := 0; step < 3; step++ {
			x := c.x(rng)
			var gy, gxFull, gxLean *tensor.Tensor
			for _, l := range []Layer{full, lean} {
				for _, p := range l.Params() {
					p.ZeroGrad()
				}
				y := l.Forward(x, true)
				if gy == nil {
					gy = tensor.RandNormal(rng, 0, 1, y.Shape()...)
				}
			}
			spansFull := backwardSpans(func() { gxFull = full.Backward(gy) })
			spansLean := backwardSpans(func() {
				if step == 1 {
					BackwardParams(lean, gy)
				} else {
					gxLean = lean.Backward(gy)
				}
			})
			if strings.Join(spansFull, " ") != strings.Join(spansLean, " ") {
				t.Errorf("%s step %d: backward spans %v, want %v", c.name, step, spansLean, spansFull)
			}
			for i, p := range full.Params() {
				requireSameBits(t, c.name+" "+p.Name+".Grad", lean.Params()[i].Grad, p.Grad)
			}
			if step != 1 {
				requireSameBits(t, c.name+" input gradient", gxLean, gxFull)
			}
		}
	}
}

func TestBackwardParamsSkipsOnlyTheFirstLayer(t *testing.T) {
	rng := tensor.NewRNG(64)
	x := tensor.RandNormal(rng, 0, 1, 4, 8)
	gy := tensor.RandNormal(rng, 0, 1, 4, 3)
	fc1, fc2 := NewDense("fc1", 8, 8, rng), NewDense("fc2", 8, 3, rng)
	nested := NewSequential("outer", NewSequential("inner", fc1, NewReLU("act")), fc2)
	nested.Forward(x, true)
	BackwardParams(nested, gy)
	if fc1.gx != nil || fc2.gx == nil {
		t.Errorf("nested: fc1 input gradient computed = %v, fc2 = %v; want false, true", fc1.gx != nil, fc2.gx != nil)
	}
	body := NewDense("body", 8, 8, rng)
	res := NewSequential("seq", NewResidual("res", body, nil), NewDense("fc", 8, 3, rng))
	res.Forward(x, true)
	BackwardParams(res, gy)
	if body.gx == nil {
		t.Error("residual: the body's input gradient feeds the skip sum and must be computed")
	}
}

// TestGradientWritesGoThroughParam keeps the first-touch state behind one
// door: outside Param's own methods nothing reads Grad's elements to write
// them, adds into Grad, or computes a weight-gradient GEMM.
func TestGradientWritesGoThroughParam(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	isGrad := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Grad"
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if fn.Recv != nil {
					if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
						if id, ok := star.X.(*ast.Ident); ok && id.Name == "Param" {
							continue
						}
					}
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					bad := ""
					switch sel.Sel.Name {
					case "Data":
						if isGrad(sel.X) {
							bad = ".Grad.Data(): take the slice from Param.gradAccum"
						}
					case "AddInPlace":
						if len(call.Args) > 0 && isGrad(call.Args[0]) {
							bad = "AddInPlace into .Grad: call Param.AddGrad"
						}
					case "MatMulTransA", "MatMulTransAInto":
						bad = sel.Sel.Name + ": call Param.AddGradTransA"
					}
					if bad != "" {
						t.Errorf("%s: %s uses %s", fset.Position(call.Pos()), fn.Name.Name, bad)
					}
					return true
				})
			}
		}
	}
}
