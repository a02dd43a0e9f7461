package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndNumel(t *testing.T) {
	x := New(2, 3, 4)
	if x.Numel() != 24 {
		t.Fatalf("Numel = %d, want 24", x.Numel())
	}
	if x.Rank() != 3 || x.Dim(1) != 3 {
		t.Fatalf("bad shape bookkeeping: %v", x.Shape())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.At(2, 1); got != 7.5 {
		t.Fatalf("At = %g, want 7.5", got)
	}
	if got := x.Data()[2*4+1]; got != 7.5 {
		t.Fatalf("row-major offset wrong: %g", got)
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length must panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeInference(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, -1)
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("Reshape inferred %v", y.Shape())
	}
	// Reshape is a view.
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("Reshape must share data")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{4, 3, 2, 1}, 2, 2)
	if got := Add(a, b).Data(); got[0] != 5 || got[3] != 5 {
		t.Fatalf("Add = %v", got)
	}
	if got := Mul(a, b).Data(); got[1] != 6 {
		t.Fatalf("Mul = %v", got)
	}
}

func TestAddRowBroadcast(t *testing.T) {
	m := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	row := FromSlice([]float32{10, 20, 30}, 3)
	got := AddRowBroadcast(m, row)
	want := []float32{11, 22, 33, 14, 25, 36}
	for i, v := range got.Data() {
		if v != want[i] {
			t.Fatalf("AddRowBroadcast = %v, want %v", got.Data(), want)
		}
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float32{1, -2, 3, -4}, 2, 2)
	if x.Sum() != -2 {
		t.Fatalf("Sum = %g", x.Sum())
	}
	if x.Mean() != -0.5 {
		t.Fatalf("Mean = %g", x.Mean())
	}
	if x.Max() != 3 || x.Min() != -4 {
		t.Fatalf("Max/Min = %g/%g", x.Max(), x.Min())
	}
	if x.Argmax() != 2 {
		t.Fatalf("Argmax = %d", x.Argmax())
	}
	rows := ArgmaxRows(x)
	if rows[0] != 0 || rows[1] != 0 {
		t.Fatalf("ArgmaxRows = %v", rows)
	}
	cs := SumRows(x)
	if cs.At(0) != 4 || cs.At(1) != -6 {
		t.Fatalf("SumRows = %v", cs.Data())
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range got.Data() {
		if v != want[i] {
			t.Fatalf("MatMul = %v, want %v", got.Data(), want)
		}
	}
}

func TestMatMulTransVariantsAgree(t *testing.T) {
	r := NewRNG(1)
	a := RandNormal(r, 0, 1, 5, 7)
	b := RandNormal(r, 0, 1, 5, 3)
	// aᵀ @ b two ways.
	want := MatMul(Transpose(a), b)
	got := MatMulTransA(a, b)
	if !Equal(want, got, 1e-4) {
		t.Fatal("MatMulTransA disagrees with explicit transpose")
	}
	c := RandNormal(r, 0, 1, 4, 7)
	d := RandNormal(r, 0, 1, 6, 7)
	want2 := MatMul(c, Transpose(d))
	got2 := MatMulTransB(c, d)
	if !Equal(want2, got2, 1e-4) {
		t.Fatal("MatMulTransB disagrees with explicit transpose")
	}
}

func TestBatchMatMul(t *testing.T) {
	r := NewRNG(2)
	a := RandNormal(r, 0, 1, 3, 2, 4)
	b := RandNormal(r, 0, 1, 3, 4, 5)
	got := BatchMatMul(a, b)
	if got.Dim(0) != 3 || got.Dim(1) != 2 || got.Dim(2) != 5 {
		t.Fatalf("BatchMatMul shape %v", got.Shape())
	}
	// Batch 1 must equal the standalone 2-D product.
	a1 := FromSlice(append([]float32(nil), a.Data()[8:16]...), 2, 4)
	b1 := FromSlice(append([]float32(nil), b.Data()[20:40]...), 4, 5)
	w := MatMul(a1, b1)
	g1 := FromSlice(append([]float32(nil), got.Data()[10:20]...), 2, 5)
	if !Equal(w, g1, 1e-5) {
		t.Fatal("BatchMatMul batch slice disagrees with MatMul")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := NewRNG(3)
	x := RandNormal(r, 0, 5, 4, 10)
	s := SoftmaxRows(x)
	for i := 0; i < 4; i++ {
		var sum float64
		for j := 0; j < 10; j++ {
			v := s.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %g", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("softmax row sums to %g", sum)
		}
	}
}

func TestSoftmaxStableWithLargeLogits(t *testing.T) {
	x := FromSlice([]float32{1000, 1001, 999}, 1, 3)
	s := SoftmaxRows(x)
	for _, v := range s.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax unstable: %v", s.Data())
		}
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	logits := FromSlice([]float32{2, 1, 0.5, 0.2, 3, 1}, 2, 3)
	loss, grad := CrossEntropy(logits, []int{0, 1})
	if loss <= 0 {
		t.Fatalf("loss = %g", loss)
	}
	// Gradient rows sum to 0 (softmax sums to 1, minus the one-hot).
	for i := 0; i < 2; i++ {
		var s float64
		for j := 0; j < 3; j++ {
			s += float64(grad.At(i, j))
		}
		if math.Abs(s) > 1e-5 {
			t.Fatalf("grad row %d sums to %g", i, s)
		}
	}
	// Finite-difference check on one logit.
	eps := float32(1e-2)
	l2 := logits.Clone()
	l2.Set(l2.At(0, 0)+eps, 0, 0)
	lossUp, _ := CrossEntropy(l2, []int{0, 1})
	num := (lossUp - loss) / eps
	if math.Abs(float64(num-grad.At(0, 0))) > 1e-2 {
		t.Fatalf("finite diff %g vs grad %g", num, grad.At(0, 0))
	}
}

func TestTopKAccuracy(t *testing.T) {
	logits := FromSlice([]float32{
		0.1, 0.9, 0.5, 0.2, // label 2 is rank 3
		0.9, 0.1, 0.2, 0.3, // label 0 is rank 1
	}, 2, 4)
	labels := []int{2, 0}
	if got := TopKAccuracy(logits, labels, 1); got != 0.5 {
		t.Fatalf("top-1 = %g", got)
	}
	if got := TopKAccuracy(logits, labels, 3); got != 1.0 {
		t.Fatalf("top-3 = %g", got)
	}
	if got := Accuracy(logits, labels); got != 0.5 {
		t.Fatalf("accuracy = %g", got)
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// A 1x1 identity kernel must return the input unchanged.
	r := NewRNG(4)
	x := RandNormal(r, 0, 1, 2, 3, 5, 5)
	w := New(3, 3, 1, 1)
	for f := 0; f < 3; f++ {
		w.Set(1, f, f, 0, 0)
	}
	y := Conv2D(x, w, 1, 0)
	if !Equal(x, y, 1e-6) {
		t.Fatal("1x1 identity conv must be identity")
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 1 batch, 1 channel, 3x3 input, 2x2 kernel of ones, stride 1, no pad:
	// each output is the sum of a 2x2 window.
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	w := Ones(1, 1, 2, 2)
	y := Conv2D(x, w, 1, 0)
	want := []float32{12, 16, 24, 28}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("conv = %v, want %v", y.Data(), want)
		}
	}
}

func TestConv2DBackwardFiniteDifference(t *testing.T) {
	r := NewRNG(5)
	x := RandNormal(r, 0, 1, 1, 2, 4, 4)
	w := RandNormal(r, 0, 0.5, 3, 2, 3, 3)
	stride, pad := 1, 1
	y := Conv2D(x, w, stride, pad)
	gy := RandNormal(r, 0, 1, y.Shape()...)
	gx, gw := Conv2DBackward(x, w, gy, stride, pad)

	loss := func(xx, ww *Tensor) float64 {
		out := Conv2D(xx, ww, stride, pad)
		var s float64
		for i, v := range out.Data() {
			s += float64(v) * float64(gy.Data()[i])
		}
		return s
	}
	base := loss(x, w)
	eps := float32(1e-2)
	// Spot-check several coordinates of both gradients.
	for _, i := range []int{0, 7, 15, 31} {
		x2 := x.Clone()
		x2.Data()[i] += eps
		num := (loss(x2, w) - base) / float64(eps)
		if math.Abs(num-float64(gx.Data()[i])) > 2e-2*(1+math.Abs(num)) {
			t.Fatalf("gx[%d]: finite diff %g vs analytic %g", i, num, gx.Data()[i])
		}
	}
	for _, i := range []int{0, 11, 29, 53} {
		w2 := w.Clone()
		w2.Data()[i] += eps
		num := (loss(x, w2) - base) / float64(eps)
		if math.Abs(num-float64(gw.Data()[i])) > 2e-2*(1+math.Abs(num)) {
			t.Fatalf("gw[%d]: finite diff %g vs analytic %g", i, num, gw.Data()[i])
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 1, 4, 4)
	y, idx := MaxPool2D(x, 2, 2)
	want := []float32{4, 8, 12, 16}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("maxpool = %v, want %v", y.Data(), want)
		}
	}
	gy := Ones(1, 1, 2, 2)
	gx := MaxPool2DBackward(gy, idx, x.Shape())
	var nz int
	for _, v := range gx.Data() {
		if v != 0 {
			nz++
		}
	}
	if nz != 4 {
		t.Fatalf("maxpool backward touched %d cells, want 4", nz)
	}
}

func TestAvgPoolRoundTrip(t *testing.T) {
	x := Ones(1, 1, 4, 4)
	y := AvgPool2D(x, 2, 2)
	for _, v := range y.Data() {
		if v != 1 {
			t.Fatalf("avgpool of ones = %v", y.Data())
		}
	}
	gy := Ones(1, 1, 2, 2)
	gx := AvgPool2DBackward(gy, x.Shape(), 2, 2)
	for _, v := range gx.Data() {
		if math.Abs(float64(v-0.25)) > 1e-6 {
			t.Fatalf("avgpool backward = %v", gx.Data())
		}
	}
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	// Col2Im is the adjoint of Im2Col: <Im2Col(x), c> == <x, Col2Im(c)>.
	r := NewRNG(6)
	x := RandNormal(r, 0, 1, 2, 3, 5, 5)
	cols := Im2Col(x, 3, 3, 2, 1)
	c := RandNormal(r, 0, 1, cols.Shape()...)
	lhs := float64(Mul(cols, c).Sum())
	back := Col2Im(c, 2, 3, 5, 5, 3, 3, 2, 1)
	rhs := float64(Mul(x, back).Sum())
	if math.Abs(lhs-rhs) > 1e-2*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint identity broken: %g vs %g", lhs, rhs)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic for equal seeds")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(7)
	var sum, sq float64
	const n = 50000
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %g", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(8)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
}

// --- property-based tests ---

func smallVec(vals []float32) *Tensor {
	if len(vals) == 0 {
		vals = []float32{0}
	}
	for i, v := range vals {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			vals[i] = 0
		}
		// Keep magnitudes bounded so float32 commutativity holds to tolerance.
		if vals[i] > 1e3 {
			vals[i] = 1e3
		}
		if vals[i] < -1e3 {
			vals[i] = -1e3
		}
	}
	return FromSlice(vals, len(vals))
}

func TestPropAddCommutative(t *testing.T) {
	f := func(a, b []float32) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		x := smallVec(append([]float32(nil), a[:n]...))
		y := smallVec(append([]float32(nil), b[:n]...))
		return Equal(Add(x, y), Add(y, x), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropScaleDistributes(t *testing.T) {
	f := func(a []float32, k float32) bool {
		if len(a) == 0 {
			return true
		}
		if math.IsNaN(float64(k)) || math.IsInf(float64(k), 0) || k > 100 || k < -100 {
			k = 2
		}
		x := smallVec(append([]float32(nil), a...))
		lhs := Scale(Add(x, x), k)
		rhs := Add(Scale(x, k), Scale(x, k))
		return Equal(lhs, rhs, 1e-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropSoftmaxInvariantToShift(t *testing.T) {
	f := func(a []float32, shift float32) bool {
		if len(a) < 2 {
			return true
		}
		if len(a) > 16 {
			a = a[:16]
		}
		if math.IsNaN(float64(shift)) || math.IsInf(float64(shift), 0) {
			shift = 1
		}
		if shift > 50 {
			shift = 50
		}
		if shift < -50 {
			shift = -50
		}
		x := smallVec(append([]float32(nil), a...)).Reshape(1, -1)
		y := x.Clone()
		for i := range y.Data() {
			y.Data()[i] += shift
		}
		return Equal(SoftmaxRows(x), SoftmaxRows(y), 1e-4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropTransposeInvolution(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) < 4 {
			return true
		}
		n := 2
		m := len(vals) / n
		if m > 8 {
			m = 8
		}
		x := smallVec(append([]float32(nil), vals[:n*m]...)).Reshape(n, m)
		return Equal(Transpose(Transpose(x)), x, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatMulLinearInFirstArg(t *testing.T) {
	r := NewRNG(9)
	for trial := 0; trial < 20; trial++ {
		a := RandNormal(r, 0, 1, 3, 4)
		b := RandNormal(r, 0, 1, 3, 4)
		c := RandNormal(r, 0, 1, 4, 2)
		lhs := MatMul(Add(a, b), c)
		rhs := Add(MatMul(a, c), MatMul(b, c))
		if !Equal(lhs, rhs, 1e-4) {
			t.Fatal("matmul not linear in first argument")
		}
	}
}

func TestConcat(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 1, 2)
	b := FromSlice([]float32{3, 4, 5, 6}, 2, 2)
	c := Concat(a, b)
	if c.Dim(0) != 3 || c.Dim(1) != 2 {
		t.Fatalf("Concat shape %v", c.Shape())
	}
	if c.At(2, 1) != 6 {
		t.Fatalf("Concat data %v", c.Data())
	}
}

func TestXavierHeInitScale(t *testing.T) {
	r := NewRNG(10)
	w := XavierInit(r, 100, 100, 100, 100)
	limit := math.Sqrt(6.0 / 200)
	for _, v := range w.Data() {
		if float64(v) < -limit-1e-6 || float64(v) > limit+1e-6 {
			t.Fatalf("xavier sample %g outside ±%g", v, limit)
		}
	}
	h := HeInit(r, 50, 50, 50)
	var sq float64
	for _, v := range h.Data() {
		sq += float64(v) * float64(v)
	}
	std := math.Sqrt(sq / float64(h.Numel()))
	want := math.Sqrt(2.0 / 50)
	if math.Abs(std-want) > 0.2*want {
		t.Fatalf("he std %g, want ~%g", std, want)
	}
}

func TestCrossEntropyLSReducesConfidenceIncentive(t *testing.T) {
	// With smoothing, an extremely confident correct prediction still has
	// gradient pressure (the smoothed target is not a one-hot).
	logits := FromSlice([]float32{20, 0, 0}, 1, 3)
	_, hard := CrossEntropy(logits, []int{0})
	lossLS, soft := CrossEntropyLS(logits, []int{0}, 0.1)
	if lossLS <= 0 {
		t.Fatal("smoothed loss must stay positive")
	}
	// Hard targets: gradient ~0 at saturation; smoothed: clearly nonzero.
	if math.Abs(float64(soft.At(0, 0))) <= math.Abs(float64(hard.At(0, 0))) {
		t.Fatalf("smoothing should keep gradient alive: %g vs %g", soft.At(0, 0), hard.At(0, 0))
	}
	// Rows still sum to zero.
	var s float64
	for j := 0; j < 3; j++ {
		s += float64(soft.At(0, j))
	}
	if math.Abs(s) > 1e-5 {
		t.Fatalf("smoothed grad row sums to %g", s)
	}
}

func TestCrossEntropyLSZeroEpsEqualsHard(t *testing.T) {
	rng := NewRNG(55)
	logits := RandNormal(rng, 0, 1, 4, 5)
	labels := []int{1, 0, 4, 2}
	l1, g1 := CrossEntropy(logits, labels)
	l2, g2 := CrossEntropyLS(logits, labels, 0)
	if l1 != l2 || !Equal(g1, g2, 0) {
		t.Fatal("eps=0 must reduce to hard cross-entropy")
	}
}

func TestCrossEntropyLSFiniteDifference(t *testing.T) {
	rng := NewRNG(56)
	logits := RandNormal(rng, 0, 1, 2, 4)
	labels := []int{2, 0}
	loss, grad := CrossEntropyLS(logits, labels, 0.1)
	if loss <= 0 {
		t.Fatal("loss must be positive")
	}
	const eps = 1e-2
	for _, i := range []int{0, 3, 5, 7} {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		up, _ := CrossEntropyLS(logits, labels, 0.1)
		logits.Data()[i] = orig - eps
		down, _ := CrossEntropyLS(logits, labels, 0.1)
		logits.Data()[i] = orig
		num := float64(up-down) / (2 * eps)
		if math.Abs(num-float64(grad.Data()[i])) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("LS grad[%d]: finite diff %.5f vs analytic %.5f", i, num, grad.Data()[i])
		}
	}
}

func TestSkipNormMatchesNormCalls(t *testing.T) {
	for _, pre := range []int{0, 1} { // with and without a cached spare
		for _, k := range []int{0, 1, 2, 3, 4, 7, 256, 257} {
			skip, draw := NewRNG(7), NewRNG(7)
			for i := 0; i < pre; i++ {
				skip.Norm()
				draw.Norm()
			}
			skip.SkipNorm(k)
			for i := 0; i < k; i++ {
				draw.Norm()
			}
			if skip.s0 != draw.s0 || skip.s1 != draw.s1 || skip.hasSpare != draw.hasSpare ||
				(draw.hasSpare && skip.spare != draw.spare) {
				t.Fatalf("pre %d, k %d: SkipNorm left %+v, %d Norm calls %+v", pre, k, *skip, k, *draw)
			}
			for i := 0; i < 5; i++ {
				if a, b := skip.Norm(), draw.Norm(); a != b {
					t.Fatalf("pre %d, k %d: draw %d after the skip %g, want %g", pre, k, i, a, b)
				}
			}
		}
	}
}

// Max returns the maximum element.
func (t *Tensor) Max() float32 {
	m := float32(math.Inf(-1))
	for _, v := range t.data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element.
func (t *Tensor) Min() float32 {
	m := float32(math.Inf(1))
	for _, v := range t.data {
		if v < m {
			m = v
		}
	}
	return m
}

// Argmax returns the flat index of the maximum element.
func (t *Tensor) Argmax() int {
	best, bi := float32(math.Inf(-1)), 0
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose needs rank 2, got %v", a.shape))
	}
	n, m := a.shape[0], a.shape[1]
	out := New(m, n)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			out.data[j*n+i] = a.data[i*m+j]
		}
	}
	return out
}

// Concat concatenates tensors along axis 0. All trailing dimensions must
// match.
func Concat(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat of nothing")
	}
	inner := ts[0].Numel() / ts[0].shape[0]
	rows := 0
	for _, t := range ts {
		if t.Numel()/t.shape[0] != inner {
			panic("tensor: Concat inner-size mismatch")
		}
		rows += t.shape[0]
	}
	shape := append([]int{rows}, ts[0].shape[1:]...)
	out := New(shape...)
	off := 0
	for _, t := range ts {
		copy(out.data[off:], t.data)
		off += t.Numel()
	}
	return out
}

// CrossEntropyLS is CrossEntropy with label smoothing: the target
// distribution places 1-eps on the true class and eps/(F-1) on the rest —
// the regularizer of the Transformer training recipe (eps = 0.1 in
// Vaswani et al.).
func CrossEntropyLS(logits *Tensor, labels []int, eps float32) (loss float32, grad *Tensor) {
	if eps == 0 {
		return CrossEntropy(logits, labels)
	}
	n := logits.shape[0]
	if len(labels) != n {
		panic(fmt.Sprintf("tensor: CrossEntropyLS got %d labels for batch %d", len(labels), n))
	}
	f := logits.Numel() / n
	if f < 2 {
		panic("tensor: CrossEntropyLS needs at least 2 classes")
	}
	logp := LogSoftmaxRows(logits)
	grad = SoftmaxRows(logits)
	off := eps / float32(f-1)
	on := 1 - eps
	var total float64
	for i, y := range labels {
		if y < 0 || y >= f {
			panic(fmt.Sprintf("tensor: CrossEntropyLS label %d out of range [0,%d)", y, f))
		}
		for j := 0; j < f; j++ {
			target := off
			if j == y {
				target = on
			}
			total -= float64(target) * float64(logp.data[i*f+j])
			grad.data[i*f+j] -= target
		}
	}
	logp.Release()
	grad.ScaleInPlace(1 / float32(n))
	return float32(total / float64(n)), grad
}

// TopKAccuracy returns the fraction of rows whose true label appears among
// the k largest logits (the paper reports Top-1 and Top-5).
func TopKAccuracy(logits *Tensor, labels []int, k int) float64 {
	n := logits.shape[0]
	f := logits.Numel() / n
	if k > f {
		k = f
	}
	correct := 0
	for i := 0; i < n; i++ {
		row := logits.data[i*f : (i+1)*f]
		y := labels[i]
		target := row[y]
		// Count entries strictly greater than the target score; the label is
		// in the top-k iff fewer than k entries beat it.
		greater := 0
		for j, v := range row {
			if v > target || (v == target && j < y) {
				greater++
			}
		}
		if greater < k {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
