package prof

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"
)

// The edge errors BuildTree names, each wrapped with the span at fault.
// ID 0 is the root's, so a record carrying it is a duplicate.
var (
	ErrDuplicateSpan = errors.New("prof: duplicate span id")
	ErrMissingParent = errors.New("prof: span's parent was never recorded")
	ErrCycle         = errors.New("prof: parent cycle")
)

// Node is one span of a Tree. Up (-1 for a root) and Children (in start
// order) index Tree.Nodes. Self is the span's interval minus the union of
// its children's intervals, each clipped to this span. Phase names the
// nearest CatPhase ancestor ("" for roots).
type Node struct {
	Record
	Up       int
	Children []int
	Self     time.Duration
	Phase    string
}

// Tree is one capture's spans linked by their parent edges, in pre-order
// (every parent before its children, siblings in start order). Its budget
// closes exactly, in integer nanoseconds:
//
//	Σ Self + Unattributed = Wall + Concurrent
//
// Unattributed is the part of [0, Wall] no root covers. Concurrent is
// child time the self-time rule takes from no parent: time a child ran
// beside a sibling (two serving replicas, a ring writer beside its
// receive loop) or outside its parent (a root, outside [0, Wall]).
type Tree struct {
	Nodes                          []Node
	Wall, Unattributed, Concurrent time.Duration
}

// BuildTree links recs (in any order) into a tree over a capture of wall
// time wall. It fails with a named error on a duplicate or zero ID, a
// parent that was never recorded, or a parent cycle.
func BuildTree(recs []Record, wall time.Duration) (*Tree, error) {
	// Sort a permutation of 4-byte indices, not the 96-byte records
	// themselves: index i below is the i-th record in (Start, ID) order.
	order := make([]int32, len(recs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ra, rb := &recs[a], &recs[b]
		return cmp.Or(cmp.Compare(ra.Start, rb.Start), cmp.Compare(ra.ID, rb.ID))
	})
	byID := make(map[uint64]int, len(recs))
	for i, o := range order {
		r := &recs[o]
		if _, dup := byID[r.ID]; dup || r.ID == 0 {
			return nil, fmt.Errorf("%w %d (%q)", ErrDuplicateSpan, r.ID, r.Name)
		}
		byID[r.ID] = i
	}
	kids := make([][]int, len(recs))
	type frame struct{ rec, up int }
	var stack []frame
	for i := len(recs) - 1; i >= 0; i-- {
		if r := &recs[order[i]]; r.Parent == 0 {
			stack = append(stack, frame{i, -1})
		} else if p, ok := byID[r.Parent]; !ok {
			return nil, fmt.Errorf("%w: span %d (%q) names parent %d", ErrMissingParent, r.ID, r.Name, r.Parent)
		} else {
			kids[p] = append(kids[p], i)
		}
	}

	// Depth-first from the roots; a record never reached is on a cycle.
	t := &Tree{Wall: wall, Nodes: make([]Node, 0, len(recs))}
	reached := make([]bool, len(recs))
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		reached[f.rec] = true
		n := Node{Record: recs[order[f.rec]], Up: f.up}
		at := len(t.Nodes)
		if f.up >= 0 {
			up := &t.Nodes[f.up]
			up.Children = append(up.Children, at)
			n.Phase = up.Phase
			if up.Cat == CatPhase {
				n.Phase = up.Name
			}
		}
		t.Nodes = append(t.Nodes, n)
		for _, k := range kids[f.rec] { // latest first, so the earliest pops first
			stack = append(stack, frame{k, at})
		}
	}
	for i, o := range order {
		if r := &recs[o]; !reached[i] {
			return nil, fmt.Errorf("%w through span %d (%q)", ErrCycle, r.ID, r.Name)
		}
	}

	var top []int
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.Up < 0 {
			top = append(top, i)
		}
		covered, excess := t.cover(n.Start, n.Start+n.Dur, n.Children)
		n.Self = n.Dur - covered
		t.Concurrent += excess
	}
	covered, excess := t.cover(0, wall, top)
	t.Unattributed = wall - covered
	t.Concurrent += excess
	return t, nil
}

// cover returns how much of [lo, hi) the start-ordered spans at idx cover
// together, and by how much their summed durations exceed that.
func (t *Tree) cover(lo, hi time.Duration, idx []int) (covered, excess time.Duration) {
	at := lo
	for _, i := range idx {
		c := &t.Nodes[i]
		excess += c.Dur
		if s, e := max(c.Start, at), min(c.Start+c.Dur, hi); e > s {
			covered += e - s
			at = e
		}
	}
	return covered, excess - covered
}

// Path is node i's names from its root down, joined by '/'
// ("step/phase.backward/fc1/gemm.dX"): what a what-if drop= clause
// selects spans by.
func (t *Tree) Path(i int) string {
	if up := t.Nodes[i].Up; up >= 0 {
		return t.Path(up) + "/" + t.Nodes[i].Name
	}
	return t.Nodes[i].Name
}
