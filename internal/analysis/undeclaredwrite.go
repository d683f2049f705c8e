package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// passUndeclaredWrite flags task bodies that mutate a workspace tensor whose
// dependency key is absent from the task's Out/InOut lists. This is the
// highest-value check: under the no-barrier execution model an undeclared
// write is a data race the scheduler cannot see (Paper §IV).
//
// The pass works from mutation summaries: a seed table of tensor kernels that
// write their destination argument, propagated to a fixed point through every
// function in the program (so e.g. Engine.headBackward is known to mutate
// ws.headGrads through tensor.GemmATAcc three calls deep). Inside each
// taskrt.Task.Fn closure, each mutated argument is resolved to a root
// (variable, first-level field); the field maps onto its dependency key by
// the workspace convention `foo ↔ kFoo`. A write is reported only when every
// alias of the buffer resolves to a key-mapped field and none of those keys
// appears in the task's declarations — anything unresolvable stays silent.
var passUndeclaredWrite = Pass{
	Name: "undeclaredwrite",
	Doc:  "task body writes a tensor whose key is not in Out/InOut",
	Run:  runUndeclaredWrite,
}

// mutKey names one mutated location: parameter index (receiver = -1) and the
// first-level field written through it ("" = the parameter's own pointee).
type mutKey struct {
	param int
	field string
}

// mutSummary is the set of locations a function writes.
type mutSummary struct {
	muts map[mutKey]bool
}

func (s *mutSummary) add(k mutKey) bool {
	if s.muts[k] {
		return false
	}
	if s.muts == nil {
		s.muts = map[mutKey]bool{}
	}
	s.muts[k] = true
	return true
}

// seedSummaries is ground truth for the tensor package kernels — the same
// set the runtime sanitizer guards with access hooks. Keys are
// types.Func.FullName strings, which are identical whether the object came
// from source type-checking or compiler export data.
func seedSummaries() map[string]*mutSummary {
	const tp = "bpar/internal/tensor"
	seeds := map[string]*mutSummary{}
	dst0 := []string{
		"Add", "Sub", "Mul", "MulAcc", "AddAcc", "Scale", "ScaleInPlace",
		"AxpyMatrix", "Average", "AddBiasRows", "ClipInPlace",
		"MatMul", "MatMulT", "MatMulNaive", "GemmAcc", "GemmTAcc", "GemmATAcc",
		"SigmoidInPlace", "TanhInPlace", "SoftmaxRows",
		"SoftmaxCrossEntropyBackward", "ConcatCols",
		// Column-window and stacked kernels of the split-gate decomposition.
		// The batch variants take a []*Matrix destination; their param-0 seed
		// resolves only when the slice itself roots at a key-mapped field
		// (append-built locals stay conservatively silent).
		"MatMulCols", "MatMulTCols", "GemmAccCols", "GemmTAccCols",
		"GemmATAccCols", "GemmTAccDstCols", "GemmATAccDstCols",
		"TransposeStackInto", "StackRowsInto",
		"GemmTAccColsBatch", "GemmAccColsBatch", "GemmATAccColsBatch",
		"CopyColsInto",
		// Dtype-generic dispatchers. They reach the kernels through the
		// per-dtype function table, which the fixed-point propagation cannot
		// see through, so each carries its own seed.
		"MatMulOf", "GemmAccOf", "MatMulTOf", "GemmTAccOf", "GemmATAccOf",
		"GemmTAccColsOf", "MatMulTColsOf", "GemmTAccColsBatchOf",
		"GemmAccColsOf", "MatMulColsOf", "GemmAccColsBatchOf",
		"GemmATAccColsOf", "GemmATAccColsBatchOf", "GemmTAccDstColsOf",
		// Packed-panel kernels and the cross-dtype conversion kernel.
		"GemmTAccColsPacked", "MatMulTColsPacked", "GemmTAccColsPackedBatch",
		"ConvertInto",
		// Masked variable-length batch kernels: row masking, boundary-gated
		// accumulation, and the final-state gather all write their first
		// argument.
		"MaskRowsZero", "AddRowsWhere", "GatherRows",
	}
	for _, name := range dst0 {
		seeds[tp+"."+name] = &mutSummary{muts: map[mutKey]bool{{param: 0}: true}}
	}
	// SplitCols(src, a, b) writes its second and third arguments.
	seeds[tp+".SplitCols"] = &mutSummary{muts: map[mutKey]bool{{param: 1}: true, {param: 2}: true}}
	// Methods live on the generic Mat[E]; types.Func.FullName spells the
	// receiver with the instantiated type argument (the `Matrix` alias never
	// appears), so both dtypes are seeded explicitly.
	for _, inst := range []string{"Mat[float64]", "Mat[float32]"} {
		for _, m := range []string{"CopyFrom", "Zero", "Fill", "Set"} {
			seeds["(*"+tp+"."+inst+")."+m] = &mutSummary{muts: map[mutKey]bool{{param: -1}: true}}
		}
	}
	return seeds
}

// mutSummaries lazily computes program-wide mutation summaries: the seed
// table propagated through every function body to a fixed point.
func (p *Program) mutSummaries() map[string]*mutSummary {
	if p.summaries != nil {
		return p.summaries
	}
	p.summaries = seedSummaries()
	for changed := true; changed; {
		changed = false
		for _, u := range p.Units {
			for _, f := range u.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					if p.propagate(u, fd) {
						changed = true
					}
				}
			}
		}
	}
	return p.summaries
}

// propagate folds callee summaries into fd's own summary: a call that
// mutates an argument rooted at one of fd's parameters makes fd a mutator of
// that parameter too. Reports whether the summary grew.
func (p *Program) propagate(u *Unit, fd *ast.FuncDecl) bool {
	obj, _ := u.Info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return false
	}
	params := paramIndexes(obj)
	grew := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, mut := range p.callMutations(u, call) {
			root, ok := rootOf(u.Info, mut.expr)
			if !ok {
				continue
			}
			idx, isParam := params[root.obj]
			if !isParam {
				continue
			}
			field := root.field
			if field == "" {
				field = mut.field
			}
			sum := p.summaries[obj.FullName()]
			if sum == nil {
				sum = &mutSummary{}
				p.summaries[obj.FullName()] = sum
			}
			if sum.add(mutKey{param: idx, field: field}) {
				grew = true
			}
		}
		return true
	})
	return grew
}

// paramIndexes maps a function's parameter objects to their index, with the
// receiver at -1.
func paramIndexes(f *types.Func) map[types.Object]int {
	sig := f.Type().(*types.Signature)
	out := map[types.Object]int{}
	if r := sig.Recv(); r != nil {
		out[r] = -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out[sig.Params().At(i)] = i
	}
	return out
}

// mutation is one argument expression a call writes through, plus the field
// within it when the callee's summary names one.
type mutation struct {
	expr  ast.Expr
	field string
}

// callMutations resolves a call against the summary table and returns the
// argument expressions it mutates.
func (p *Program) callMutations(u *Unit, call *ast.CallExpr) []mutation {
	callee := calleeFunc(u.Info, call)
	if callee == nil {
		return nil
	}
	sum := p.summaries[callee.FullName()]
	if sum == nil {
		return nil
	}
	var out []mutation
	for k := range sum.muts {
		var arg ast.Expr
		if k.param == -1 {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			arg = sel.X
		} else if k.param < len(call.Args) {
			arg = call.Args[k.param]
		} else {
			continue
		}
		out = append(out, mutation{expr: arg, field: k.field})
	}
	return out
}

func runUndeclaredWrite(p *Program, u *Unit) []Diagnostic {
	p.mutSummaries() // force the fixed point before resolving calls
	var diags []Diagnostic
	for _, f := range u.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, t := range collectTaskLits(u, fd) {
				diags = append(diags, p.checkTaskWrites(u, fd, t)...)
			}
		}
	}
	return diags
}

// checkTaskWrites verifies every mutation inside a task body against the
// task's declared Out/InOut keys.
func (p *Program) checkTaskWrites(u *Unit, fd *ast.FuncDecl, t *taskLit) []Diagnostic {
	if t.fn == nil {
		return nil
	}
	// Resolve declared write keys to (object, field) roots. If any element
	// is unresolvable — or a declaration list itself was — the task's
	// declarations are partially opaque and we stay silent.
	declared := map[types.Object]map[string]bool{}
	declUnresolved := t.unresolved
	for _, lists := range [][]ast.Expr{t.out, t.inout} {
		for _, e := range lists {
			root, ok := rootOf(u.Info, e)
			if !ok || root.field == "" {
				declUnresolved = true
				continue
			}
			if declared[root.obj] == nil {
				declared[root.obj] = map[string]bool{}
			}
			declared[root.obj][root.field] = true
		}
	}

	var diags []Diagnostic
	ast.Inspect(t.fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, mut := range p.callMutations(u, call) {
			if d, bad := p.verdict(u, fd, t, declared, declUnresolved, mut); bad {
				d.Pos = u.Fset.Position(call.Pos())
				d.Pass = "undeclaredwrite"
				diags = append(diags, d)
			}
		}
		return true
	})
	return diags
}

// verdict decides whether one mutated argument is an undeclared write.
// Every possible root of the buffer must resolve to a key-mapped field that
// is missing from the declarations; any unresolvable or declared alias means
// silence.
func (p *Program) verdict(u *Unit, fd *ast.FuncDecl, t *taskLit, declared map[types.Object]map[string]bool, declUnresolved bool, mut mutation) (Diagnostic, bool) {
	root, ok := rootOf(u.Info, mut.expr)
	if !ok {
		return Diagnostic{}, false
	}
	field := root.field
	if field == "" {
		field = mut.field
	}
	roots := []rootRef{{obj: root.obj, field: field}}
	if field == "" {
		// Plain local variable: chase its assignments for buffer aliases.
		var resolved bool
		roots, resolved = aliasRoots(u, fd, root.obj)
		if !resolved {
			return Diagnostic{}, false
		}
	}
	var missing []string
	for _, r := range roots {
		if r.field == "" {
			return Diagnostic{}, false
		}
		key := keyFieldName(r.field)
		if !hasField(r.obj, key) {
			return Diagnostic{}, false // no key convention for this buffer
		}
		if declUnresolved || declared[r.obj][key] {
			return Diagnostic{}, false
		}
		missing = append(missing, fmt.Sprintf("%s.%s (key %s.%s)", r.obj.Name(), r.field, r.obj.Name(), key))
	}
	if len(missing) == 0 {
		return Diagnostic{}, false
	}
	label := taskLabel(t)
	return Diagnostic{
		Message: fmt.Sprintf("task %s writes %s but its Out/InOut lists do not declare the key", label, missing[0]),
	}, true
}

// aliasRoots resolves a plain local variable to the set of buffer roots it
// may alias, by scanning every assignment to it in the enclosing function.
func aliasRoots(u *Unit, fd *ast.FuncDecl, obj types.Object) ([]rootRef, bool) {
	var roots []rootRef
	resolved := true
	any := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || objOf(u.Info, id) != obj {
				continue
			}
			any = true
			if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
				// Tuple assignment from a call: opaque.
				resolved = false
				continue
			}
			if i >= len(as.Rhs) {
				resolved = false
				continue
			}
			r, ok := rootOf(u.Info, as.Rhs[i])
			if !ok {
				resolved = false
				continue
			}
			roots = append(roots, r)
		}
		return true
	})
	if !any {
		return nil, false // parameter or range variable: opaque
	}
	return roots, resolved
}

// taskLabel extracts the Label field for diagnostics, quoting string
// literals and falling back to a generic description.
func taskLabel(t *taskLit) string {
	for _, el := range t.lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Label" {
			switch v := kv.Value.(type) {
			case *ast.BasicLit:
				return v.Value
			case *ast.CallExpr:
				if len(v.Args) > 0 {
					if lit, ok := v.Args[0].(*ast.BasicLit); ok {
						return lit.Value
					}
				}
			}
		}
	}
	return "(unlabeled)"
}
