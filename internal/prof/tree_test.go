package prof

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// checkBudget asserts the tree's budget closes exactly.
func checkBudget(t *testing.T, tree *Tree) {
	t.Helper()
	var self time.Duration
	for _, n := range tree.Nodes {
		self += n.Self
	}
	if self+tree.Unattributed-tree.Concurrent != tree.Wall {
		t.Fatalf("Σ self %v + unattributed %v − concurrent %v != wall %v", self, tree.Unattributed, tree.Concurrent, tree.Wall)
	}
}

// TestTreeSelfTime pins what self time means when children do not run
// one after another: a child's interval counts once, clipped to its
// parent, and what the children spend beside each other or outside their
// parent is the tree's concurrent figure. The first case is the interval
// set of bench's TestSelfTimes (nanoseconds), so the two definitions are
// shown to agree span for span.
func TestTreeSelfTime(t *testing.T) {
	rec := func(id, parent uint64, name string, start, end time.Duration) Record {
		return Record{ID: id, Parent: parent, Name: name, Start: start, Dur: end - start}
	}
	for _, c := range []struct {
		name       string
		recs       []Record
		wall       time.Duration
		self       map[string]time.Duration // by name
		unattr     time.Duration
		concurrent time.Duration
	}{
		{
			name: "bench's intervals",
			recs: []Record{
				rec(1, 0, "step", 0, 100),
				rec(2, 1, "a", 10, 30),
				rec(3, 1, "b", 20, 50),  // overlaps a: adds only 30..50
				rec(4, 1, "c", 90, 120), // overhangs: clipped to 90..100
				rec(5, 2, "a.child", 10, 25),
				rec(6, 0, "step2", 100, 200), // no children
			},
			wall:       200,
			self:       map[string]time.Duration{"step": 100 - 20 - 20 - 10, "a": 5, "b": 30, "c": 30, "a.child": 15, "step2": 100},
			concurrent: 10 + 20, // a and b overlap 10; c overhangs 20
		},
		{
			name: "sequential children",
			recs: []Record{rec(1, 0, "step", 10, 110), rec(2, 1, "fwd", 20, 50), rec(3, 1, "bwd", 50, 100)},
			wall: 120,
			self: map[string]time.Duration{"step": 20, "fwd": 30, "bwd": 50}, unattr: 20,
		},
		{
			name: "two serving replicas under one parent",
			recs: []Record{rec(1, 0, "serve", 0, 100), rec(2, 1, "r0.batch", 10, 60), rec(3, 1, "r1.batch", 30, 90)},
			wall: 100,
			self: map[string]time.Duration{"serve": 20, "r0.batch": 50, "r1.batch": 60}, concurrent: 30,
		},
		{
			name: "ring writer beside its receive loop, both overhanging",
			recs: []Record{rec(1, 0, "comm.ring", 0, 50), rec(2, 1, "recv", 0, 60), rec(3, 1, "write", 5, 55)},
			wall: 60,
			self: map[string]time.Duration{"comm.ring": 0, "recv": 60, "write": 50}, unattr: 10, concurrent: 10 + 5 + 45,
		},
		{
			name: "empty parent and overlapping roots",
			recs: []Record{rec(1, 0, "idle", 0, 40), rec(2, 0, "late", 30, 80)},
			wall: 70,
			self: map[string]time.Duration{"idle": 40, "late": 50}, concurrent: 10 + 10,
		},
	} {
		tree, err := BuildTree(c.recs, c.wall)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, n := range tree.Nodes {
			if n.Self != c.self[n.Name] {
				t.Errorf("%s: %s self %v, want %v", c.name, n.Name, n.Self, c.self[n.Name])
			}
		}
		if tree.Unattributed != c.unattr || tree.Concurrent != c.concurrent {
			t.Errorf("%s: unattributed %v concurrent %v, want %v and %v", c.name, tree.Unattributed, tree.Concurrent, c.unattr, c.concurrent)
		}
		checkBudget(t, tree)
	}
}

func TestTreeRejectsBrokenEdges(t *testing.T) {
	for _, c := range []struct {
		recs []Record
		want error
	}{
		{[]Record{{ID: 1}, {ID: 1}}, ErrDuplicateSpan},
		{[]Record{{ID: 0}}, ErrDuplicateSpan},
		{[]Record{{ID: 2, Parent: 7}}, ErrMissingParent},
		{[]Record{{ID: 1, Parent: 2}, {ID: 2, Parent: 1}}, ErrCycle},
		{[]Record{{ID: 3}, {ID: 1, Parent: 1}}, ErrCycle},
	} {
		if _, err := BuildTree(c.recs, 0); !errors.Is(err, c.want) {
			t.Errorf("BuildTree(%+v) = %v, want %v", c.recs, err, c.want)
		}
	}
}

// TestCaptureEdgeIntegrity records a real nested capture: every non-root
// span hangs off the span that was open when it began, phases and paths
// follow the edges, and the budget closes.
func TestCaptureEdgeIntegrity(t *testing.T) {
	Enable()
	for step := 0; step < 3; step++ {
		st := Begin(CatPhase, "step")
		fwd := BeginChild(&st, CatPhase, "phase.forward")
		for k := 0; k < 4; k++ {
			sp := Begin(CatKernel, "gemm")
			sp.End()
		}
		fwd.End()
		upd := BeginChild(&st, CatPhase, "phase.update")
		upd.End()
		st.End()
	}
	Disable()
	trees, err := Current(Meta{}).Trees()
	if err != nil {
		t.Fatal(err)
	}
	tree := trees[0]
	if len(tree.Nodes) != 3*7 {
		t.Fatalf("got %d nodes, want 21", len(tree.Nodes))
	}
	roots := 0
	for i, n := range tree.Nodes {
		if n.Up < 0 {
			roots++
			continue
		}
		up := tree.Nodes[n.Up]
		if n.Start < up.Start || n.Start > up.Start+up.Dur {
			t.Fatalf("span %q began outside its parent %q's interval", n.Name, up.Name)
		}
		if n.Name == "gemm" && (n.Phase != "phase.forward" || tree.Path(i) != "step/phase.forward/gemm") {
			t.Fatalf("gemm phase %q path %q", n.Phase, tree.Path(i))
		}
	}
	if roots != 3 {
		t.Fatalf("got %d roots, want the 3 step spans", roots)
	}
	checkBudget(t, tree)
}

// TestConcurrentChildrenCloseBudget opens two spans under one parent from
// two goroutines that are both inside them at once: the overlap shows as
// the tree's concurrent figure, and the budget still closes.
func TestConcurrentChildrenCloseBudget(t *testing.T) {
	Enable()
	parent := Begin(CatPhase, "step")
	var inside, wg sync.WaitGroup
	inside.Add(2)
	for _, name := range []string{"r0.batch", "r1.batch"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := BeginChild(&parent, CatServe, name)
			inside.Done()
			inside.Wait() // both children are open now
			time.Sleep(time.Millisecond)
			sp.End()
		}()
	}
	wg.Wait()
	parent.End()
	Disable()
	trees, err := Current(Meta{}).Trees()
	if err != nil {
		t.Fatal(err)
	}
	if tree := trees[0]; tree.Concurrent <= 0 {
		t.Fatalf("two overlapping children left concurrent at %v", tree.Concurrent)
	} else {
		checkBudget(t, tree)
	}
}

// TestLeafSpansLeaveTheAmbientParent opens leaf spans from two goroutines
// under one kernel span and ends the first one opened first: a span opened
// with Begin afterwards still attaches to the kernel span, where
// BeginChild's would have left the ambient slot naming a finished worker
// span.
func TestLeafSpansLeaveTheAmbientParent(t *testing.T) {
	Enable()
	kernel := Begin(CatKernel, "conv2d.fwd")
	opened, done := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sp := BeginLeaf(&kernel, CatKernel, "im2col")
		opened <- struct{}{}
		<-opened // the second leaf is open
		sp.End()
		close(done)
	}()
	go func() {
		defer wg.Done()
		<-opened
		sp := BeginLeaf(&kernel, CatKernel, "im2col")
		opened <- struct{}{}
		<-done
		sp.End()
	}()
	wg.Wait()
	next := Begin(CatKernel, "gemm")
	next.End()
	kernel.End()
	Disable()
	trees, err := Current(Meta{}).Trees()
	if err != nil {
		t.Fatal(err)
	}
	tree := trees[0]
	if len(tree.Nodes) != 4 {
		t.Fatalf("got %d spans, want the kernel, two leaves and the span after them", len(tree.Nodes))
	}
	for _, n := range tree.Nodes[1:] {
		if up := tree.Nodes[n.Up].Name; up != "conv2d.fwd" {
			t.Errorf("%s hangs off %s, want conv2d.fwd", n.Name, up)
		}
	}
	checkBudget(t, tree)
}
