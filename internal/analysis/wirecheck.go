package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Wirecheck guards hand-rolled wire protocols against silent kind skew:
// a const group annotated //tbd:wire-kinds declares a protocol's kind
// vocabulary, and every constant in it must appear on both sides of the
// protocol — somewhere that encodes it (a plain use: struct literal,
// assignment, argument) and somewhere that decodes it (a switch case or
// an ==/!= comparison). A kind with an encoder but no decoder is a
// message the peer silently drops; a kind with a decoder but no encoder
// is dead protocol surface that rots. The escape for deliberate
// one-sided kinds (reserved values, kinds decoded for forward
// compatibility) is //tbd:wire-ok <why> on the constant's line; the
// justification is mandatory.
var Wirecheck = &Analyzer{
	Name: "wirecheck",
	Doc:  "every //tbd:wire-kinds constant appears in both the encode and decode paths",
	Run:  runWirecheck,
}

func runWirecheck(p *Pass) {
	type wireConst struct {
		obj types.Object
		pos token.Pos
	}
	var kinds []wireConst
	inVocab := map[types.Object]bool{}
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			if _, marked := docEscape("wire-kinds", gd.Doc); !marked {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					obj := p.Pkg.Info.Defs[name]
					if obj == nil {
						continue
					}
					kinds = append(kinds, wireConst{obj: obj, pos: name.Pos()})
					inVocab[obj] = true
				}
			}
		}
	}
	if len(kinds) == 0 {
		return
	}

	// Classify every use: decode side is a switch case or an ==/!=
	// comparison; anything else is the encode side.
	decoded := map[types.Object]bool{}
	encoded := map[types.Object]bool{}
	decodeUse := map[*ast.Ident]bool{}
	markDecode := func(expr ast.Expr) {
		ast.Inspect(expr, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := p.Pkg.Info.Uses[id]; obj != nil && inVocab[obj] {
				decoded[obj] = true
				decodeUse[id] = true
			}
			return true
		})
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CaseClause:
				for _, expr := range n.List {
					markDecode(expr)
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					markDecode(n.X)
					markDecode(n.Y)
				}
			}
			return true
		})
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || decodeUse[id] {
				return true
			}
			if obj := p.Pkg.Info.Uses[id]; obj != nil && inVocab[obj] {
				encoded[obj] = true
			}
			return true
		})
	}

	for _, k := range kinds {
		if arg, ok := p.Escape(k.pos, "wire-ok"); ok {
			if arg == "" {
				p.Reportf(k.pos, "//tbd:wire-ok on %s needs a justification (why is a one-sided wire kind safe?)", k.obj.Name())
			}
			continue
		}
		switch {
		case !encoded[k.obj] && !decoded[k.obj]:
			p.Reportf(k.pos, "wire kind %s is never used on either side of the protocol; delete it or annotate //tbd:wire-ok <why>", k.obj.Name())
		case !decoded[k.obj]:
			p.Reportf(k.pos, "wire kind %s is encoded but never decoded (no switch case or comparison); the peer will silently drop it", k.obj.Name())
		case !encoded[k.obj]:
			p.Reportf(k.pos, "wire kind %s is decoded but never encoded; dead protocol surface or a missing sender", k.obj.Name())
		}
	}
}
