package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// Additional property-based tests (testing/quick) on the core tensor
// algebra — the invariants every layer implementation leans on.

// boundedVec sanitizes quick-generated float slices into finite, bounded
// values of at least length min.
func boundedVec(vals []float32, min int) []float32 {
	out := make([]float32, 0, len(vals)+min)
	for _, v := range vals {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			v = 0
		}
		if v > 100 {
			v = 100
		}
		if v < -100 {
			v = -100
		}
		out = append(out, v)
	}
	for len(out) < min {
		out = append(out, float32(len(out)))
	}
	return out
}

func TestPropScaleByZeroAnnihilates(t *testing.T) {
	f := func(vals []float32) bool {
		v := boundedVec(vals, 1)
		x := FromSlice(v, len(v))
		return Scale(x, 0).L2Norm() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropReshapePreservesSum(t *testing.T) {
	f := func(vals []float32) bool {
		v := boundedVec(vals, 6)
		v = v[:len(v)/6*6]
		x := FromSlice(v, len(v))
		y := x.Reshape(len(v)/6, 2, 3)
		return math.Abs(float64(x.Sum()-y.Sum())) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropConcatPreservesElements(t *testing.T) {
	f := func(a, b []float32) bool {
		va := boundedVec(a, 2)
		vb := boundedVec(b, 2)
		va = va[:len(va)/2*2]
		vb = vb[:len(vb)/2*2]
		x := FromSlice(va, len(va)/2, 2)
		y := FromSlice(vb, len(vb)/2, 2)
		c := Concat(x, y)
		if c.Numel() != x.Numel()+y.Numel() {
			return false
		}
		return math.Abs(float64(c.Sum()-(x.Sum()+y.Sum()))) < 1e-2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatMulDistributesOverSecondArg(t *testing.T) {
	r := NewRNG(77)
	for trial := 0; trial < 25; trial++ {
		a := RandNormal(r, 0, 1, 3, 5)
		b := RandNormal(r, 0, 1, 5, 4)
		c := RandNormal(r, 0, 1, 5, 4)
		lhs := MatMul(a, Add(b, c))
		rhs := Add(MatMul(a, b), MatMul(a, c))
		if !Equal(lhs, rhs, 1e-4) {
			t.Fatal("matmul not linear in second argument")
		}
	}
}

func TestPropMatMulAssociativeWithinTolerance(t *testing.T) {
	r := NewRNG(78)
	for trial := 0; trial < 10; trial++ {
		a := RandNormal(r, 0, 1, 3, 4)
		b := RandNormal(r, 0, 1, 4, 5)
		c := RandNormal(r, 0, 1, 5, 2)
		lhs := MatMul(MatMul(a, b), c)
		rhs := MatMul(a, MatMul(b, c))
		if !Equal(lhs, rhs, 1e-3) {
			t.Fatal("matmul associativity violated beyond float32 tolerance")
		}
	}
}

func TestPropMatVecAgreesWithMatMul(t *testing.T) {
	r := NewRNG(79)
	for trial := 0; trial < 20; trial++ {
		a := RandNormal(r, 0, 1, 4, 6)
		x := RandNormal(r, 0, 1, 6)
		got := MatVec(a, x)
		want := MatMul(a, x.Reshape(6, 1)).Reshape(4)
		if !Equal(got, want, 1e-4) {
			t.Fatal("MatVec disagrees with MatMul")
		}
	}
}

func TestPropOuterRankOne(t *testing.T) {
	r := NewRNG(80)
	x := RandNormal(r, 0, 1, 5)
	y := RandNormal(r, 0, 1, 7)
	o := Outer(x, y)
	// Every row is a scalar multiple of y: check via cross ratios.
	for i := 0; i < 5; i++ {
		for j := 1; j < 7; j++ {
			lhs := float64(o.At(i, j)) * float64(y.At(0))
			rhs := float64(o.At(i, 0)) * float64(y.At(j))
			if math.Abs(lhs-rhs) > 1e-4 {
				t.Fatal("outer product not rank one")
			}
		}
	}
}

func TestPropSoftmaxPreservesArgmax(t *testing.T) {
	f := func(vals []float32) bool {
		v := boundedVec(vals, 3)
		if len(v) > 12 {
			v = v[:12]
		}
		x := FromSlice(v, 1, len(v))
		s := SoftmaxRows(x)
		return x.Argmax() == s.Argmax()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropLogSoftmaxExpSumsToOne(t *testing.T) {
	r := NewRNG(81)
	for trial := 0; trial < 20; trial++ {
		x := RandNormal(r, 0, 3, 4, 9)
		ls := LogSoftmaxRows(x)
		for i := 0; i < 4; i++ {
			var sum float64
			for j := 0; j < 9; j++ {
				sum += math.Exp(float64(ls.At(i, j)))
			}
			if math.Abs(sum-1) > 1e-4 {
				t.Fatalf("exp(logsoftmax) row sums to %g", sum)
			}
		}
	}
}

func TestPropTopKMonotoneInK(t *testing.T) {
	r := NewRNG(82)
	logits := RandNormal(r, 0, 1, 16, 10)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = r.Intn(10)
	}
	prev := 0.0
	for k := 1; k <= 10; k++ {
		acc := TopKAccuracy(logits, labels, k)
		if acc < prev {
			t.Fatalf("top-%d accuracy %.3f below top-%d %.3f", k, acc, k-1, prev)
		}
		prev = acc
	}
	if prev != 1.0 {
		t.Fatal("top-V accuracy must be 1")
	}
}

func TestPropConv2DLinearInInput(t *testing.T) {
	r := NewRNG(83)
	for trial := 0; trial < 10; trial++ {
		x1 := RandNormal(r, 0, 1, 1, 2, 5, 5)
		x2 := RandNormal(r, 0, 1, 1, 2, 5, 5)
		w := RandNormal(r, 0, 1, 3, 2, 3, 3)
		lhs := Conv2D(Add(x1, x2), w, 1, 1)
		rhs := Add(Conv2D(x1, w, 1, 1), Conv2D(x2, w, 1, 1))
		if !Equal(lhs, rhs, 1e-3) {
			t.Fatal("conv2d not linear in input")
		}
	}
}

func TestPropPoolBounds(t *testing.T) {
	r := NewRNG(84)
	for trial := 0; trial < 10; trial++ {
		x := RandNormal(r, 0, 1, 1, 2, 6, 6)
		mp, _ := MaxPool2D(x, 2, 2)
		ap := AvgPool2D(x, 2, 2)
		// max >= avg elementwise; both within the input's range.
		for i := range mp.Data() {
			if mp.Data()[i] < ap.Data()[i]-1e-6 {
				t.Fatal("max pool below avg pool")
			}
		}
		if mp.Max() > x.Max()+1e-6 || ap.Min() < x.Min()-1e-6 {
			t.Fatal("pool outputs escape the input range")
		}
	}
}

func TestPropMatMulIntoMatchesMatMul(t *testing.T) {
	f := func(vals []float32) bool {
		v := boundedVec(vals, 12)
		n, k, m := 3, 2, 2
		a := FromSlice(v[:n*k], n, k)
		b := FromSlice(v[n*k:n*k+k*m], k, m)
		want := MatMul(a, b)
		// A recycled, dirty pooled destination must give identical bits.
		dst := Acquire(n, m)
		dst.Fill(123)
		dst.Release()
		got := MatMulInto(Acquire(n, m), a, b)
		return Equal(got, want, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// MatVec returns a @ x for a [N, K] and x [K], producing [N].
func MatVec(a, x *Tensor) *Tensor {
	if a.Rank() != 2 || x.Rank() != 1 {
		panic(fmt.Sprintf("tensor: MatVec needs [N,K] @ [K], got %v @ %v", a.shape, x.shape))
	}
	n, k := a.shape[0], a.shape[1]
	if x.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatVec dimension mismatch %v @ %v", a.shape, x.shape))
	}
	out := New(n)
	for i := 0; i < n; i++ {
		out.data[i] = dotOne(a.data[i*k:(i+1)*k], x.data)
	}
	return out
}

// Outer returns x ⊗ y, the [N, M] outer product of vectors x [N] and y [M].
func Outer(x, y *Tensor) *Tensor {
	if x.Rank() != 1 || y.Rank() != 1 {
		panic(fmt.Sprintf("tensor: Outer needs vectors, got %v, %v", x.shape, y.shape))
	}
	n, m := x.shape[0], y.shape[0]
	out := New(n, m)
	for i := 0; i < n; i++ {
		xv := x.data[i]
		row := out.data[i*m : (i+1)*m]
		for j := 0; j < m; j++ {
			row[j] = xv * y.data[j]
		}
	}
	return out
}
