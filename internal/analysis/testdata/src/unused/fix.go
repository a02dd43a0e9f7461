// Package main exercises unused: main is the program root, fix_test.go
// holds the test roots, and excluded.go is a file build constraints
// leave out.
package main

import (
	"fmt"
	"io"
)

type shape interface{ area() float64 }

type square struct{ side float64 }

// area is kept: square is converted to shape, whose method set has it.
func (s square) area() float64 { return s.side * s.side }

// perimeter is on a reached type, but nothing calls it.
func (s square) perimeter() float64 { return 4 * s.side } // want "method square.perimeter is unreachable"

// counter is handed to fmt as an io.Writer: Write is kept.
type counter struct{ n int }

func (c *counter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// label reaches fmt only as an any: String is kept because fmt looks it
// up dynamically.
type label string

func (l label) String() string { return "<" + string(l) + ">" }

// table's initializer runs at start-up, so table and build are kept
// though nothing reads table.
var table = build()

func build() []int { return []int{1, 2} }

func dead() int { return 1 } // want "func dead is unreachable"

//tbd:api a stale escape does not keep unreachable code
func deadEscaped() int { return 2 } // want "func deadEscaped is unreachable"

func onlyTested() int { return 3 } // want "func onlyTested is reached only from tests"

// oracle is the reference its test compares against.
//
//tbd:api the slow reference TestFast checks fast against
func oracle() int { return oracleStep() }

// oracleStep is reached through the escaped oracle: not reported.
func oracleStep() int { return 4 }

// reference is an oracle type: the escape covers its methods.
//
//tbd:api the slow model TestFast checks fast against
type reference struct{}

func (reference) eval() int { return 7 }

// mentioned names the //tbd:api escape in prose, which is not one.
func mentioned() int { return 8 } // want "func mentioned is reached only from tests"

//tbd:api
func emptyWhy() int { return 5 } // want "//tbd:api on func emptyWhy needs a justification"

// onlyOnOtherArch is named only by excluded.go.
func onlyOnOtherArch() int { return 6 }

func main() {
	var s shape = square{2}
	c := &counter{}
	fmt.Fprintf(c, "%v %v", s.area(), label("x"))
	var _ io.Writer = c
}
