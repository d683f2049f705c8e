// Fixture for the undeclaredwrite pass. A fixWS mimics the workspace key
// convention: buffer field foo pairs with key field kFoo.
package fixture

import (
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

type fixWS struct {
	merged  *tensor.Matrix
	dMerged *tensor.Matrix
	pre     *tensor.Matrix // gate-preload panel of the split decomposition
	dGates  *tensor.Matrix // gate-gradient panel
	stackP  *tensor.Matrix // deliberately no kStackP: dw transposition scratch
	scratch *tensor.Matrix // deliberately no kScratch: not key-mapped

	x32   *tensor.Mat[float32] // float32 input mirror, written by conv tasks
	pre32 *tensor.Mat[float32] // float32 gate-preload panel

	kMerged  *int
	kDMerged *int
	kPre     *int
	kDGates  *int
	kX32     *int
	kPre32   *int
}

// scaleInto is a helper whose mutation of dst must be discovered by
// fixed-point summary propagation from the tensor seed table.
func scaleInto(dst, src *tensor.Matrix) {
	tensor.Scale(dst, 0.5, src)
}

func emitUndeclared(rt *taskrt.Runtime, ws *fixWS, x *tensor.Matrix) {
	rt.Submit(&taskrt.Task{
		Label: "bad-merge",
		In:    []taskrt.Dep{ws.kDMerged},
		Out:   []taskrt.Dep{},
		Fn: func() {
			tensor.Add(ws.merged, x, x) // want "task \"bad-merge\" writes ws.merged"
		},
	})
}

func emitDeclared(rt *taskrt.Runtime, ws *fixWS, x *tensor.Matrix) {
	rt.Submit(&taskrt.Task{
		Label: "good-merge",
		Out:   []taskrt.Dep{ws.kMerged},
		Fn: func() {
			tensor.Add(ws.merged, x, x) // declared: no diagnostic
		},
	})
}

// emitLateFn uses the append-built list and deferred-Fn emitter idiom.
func emitLateFn(rt *taskrt.Runtime, ws *fixWS) {
	out := []taskrt.Dep{}
	out = append(out, ws.kDMerged)
	t := &taskrt.Task{Label: "late-fn", Out: out}
	t.Fn = func() {
		ws.merged.Zero() // want "task \"late-fn\" writes ws.merged"
		ws.dMerged.Zero()
	}
	rt.Submit(t)
}

// emitViaHelper writes through a local helper two levels above the kernel.
func emitViaHelper(rt *taskrt.Runtime, ws *fixWS, x *tensor.Matrix) {
	rt.Submit(&taskrt.Task{
		Label: "helper-write",
		Out:   []taskrt.Dep{ws.kDMerged},
		Fn: func() {
			scaleInto(ws.merged, x) // want "task \"helper-write\" writes ws.merged"
		},
	})
}

// emitScratch writes a buffer with no key convention: silent by design.
func emitScratch(rt *taskrt.Runtime, ws *fixWS) {
	rt.Submit(&taskrt.Task{
		Label: "scratch-write",
		Out:   []taskrt.Dep{ws.kMerged},
		Fn: func() {
			ws.scratch.Zero() // unmapped buffer: no diagnostic
		},
	})
}

// emitAliased writes through a local alias that can only point at
// undeclared key-mapped buffers.
func emitAliased(rt *taskrt.Runtime, ws *fixWS, flip bool) {
	rt.Submit(&taskrt.Task{
		Label: "alias-write",
		In:    []taskrt.Dep{ws.kMerged},
		Out:   []taskrt.Dep{},
		Fn: func() {
			dst := ws.merged
			if flip {
				dst = ws.dMerged
			}
			dst.Zero() // want "task \"alias-write\" writes ws"
		},
	})
}

// emitProjUndeclared mimics a projection task writing its gate-preload panel
// through the column-window kernels without declaring the panel's key.
func emitProjUndeclared(rt *taskrt.Runtime, ws *fixWS, x, w *tensor.Matrix) {
	rt.Submit(&taskrt.Task{
		Label: "bad-proj",
		In:    []taskrt.Dep{ws.kMerged},
		Fn: func() {
			tensor.MatMulTCols(ws.pre, x, w, 0)  // want "task \"bad-proj\" writes ws.pre"
			tensor.GemmTAccCols(ws.pre, x, w, 0) // want "task \"bad-proj\" writes ws.pre"
		},
	})
}

// emitProjDeclared is the same write with the key declared: silent.
func emitProjDeclared(rt *taskrt.Runtime, ws *fixWS, x, w *tensor.Matrix) {
	rt.Submit(&taskrt.Task{
		Label: "good-proj",
		Out:   []taskrt.Dep{ws.kPre},
		Fn: func() {
			tensor.MatMulTCols(ws.pre, x, w, 0) // declared: no diagnostic
		},
	})
}

// emitDWStacked mimics a batched dw task: the stacked dot-form kernels write
// a key-mapped gradient panel (must be declared) and unmapped transposition
// scratch (silent by design).
func emitDWStacked(rt *taskrt.Runtime, ws *fixWS, panels []*tensor.Matrix) {
	rt.Submit(&taskrt.Task{
		Label: "bad-dw",
		In:    []taskrt.Dep{ws.kPre},
		Fn: func() {
			tensor.TransposeStackInto(ws.stackP, panels)                      // unmapped scratch: no diagnostic
			tensor.GemmTAccDstCols(ws.dGates, 0, ws.stackP, ws.stackP)        // want "task \"bad-dw\" writes ws.dGates"
			tensor.StackRowsInto(ws.stackP, panels)                           // unmapped scratch: no diagnostic
			tensor.GemmATAccDstCols(ws.dGates, 0, ws.stackP, 0, 4, ws.stackP) // want "task \"bad-dw\" writes ws.dGates"
		},
	})
}

// emitConvUndeclared mimics a dtype-conversion task writing the float32
// input mirror without declaring its key.
func emitConvUndeclared(rt *taskrt.Runtime, ws *fixWS, x *tensor.Matrix) {
	rt.Submit(&taskrt.Task{
		Label: "bad-conv",
		In:    []taskrt.Dep{ws.kMerged},
		Fn: func() {
			tensor.ConvertInto(ws.x32, x) // want "task \"bad-conv\" writes ws.x32"
		},
	})
}

// emitConvDeclared declares the mirror's key: silent.
func emitConvDeclared(rt *taskrt.Runtime, ws *fixWS, x *tensor.Matrix) {
	rt.Submit(&taskrt.Task{
		Label: "good-conv",
		In:    []taskrt.Dep{ws.kMerged},
		Out:   []taskrt.Dep{ws.kX32},
		Fn: func() {
			tensor.ConvertInto(ws.x32, x) // declared: no diagnostic
		},
	})
}

// emitPackedUndeclared mimics a float32 packed-panel projection: both the
// packed microkernel and the dtype-generic dispatcher write the preload
// panel, and each seed must fire without help from the other.
func emitPackedUndeclared(rt *taskrt.Runtime, ws *fixWS, w *tensor.Mat[float32], pp *tensor.PackedPanel[float32]) {
	rt.Submit(&taskrt.Task{
		Label: "bad-packed",
		In:    []taskrt.Dep{ws.kX32},
		Fn: func() {
			tensor.MatMulTColsPacked(ws.pre32, ws.x32, pp) // want "task \"bad-packed\" writes ws.pre32"
			tensor.GemmTAccColsOf(ws.pre32, ws.x32, w, 0)  // want "task \"bad-packed\" writes ws.pre32"
		},
	})
}

// emitPackedDeclared is the same projection with the panel key declared.
func emitPackedDeclared(rt *taskrt.Runtime, ws *fixWS, pp *tensor.PackedPanel[float32]) {
	rt.Submit(&taskrt.Task{
		Label: "good-packed",
		In:    []taskrt.Dep{ws.kX32},
		Out:   []taskrt.Dep{ws.kPre32},
		Fn: func() {
			tensor.GemmTAccColsPacked(ws.pre32, ws.x32, pp) // declared: no diagnostic
		},
	})
}

// emitMaskUndeclared mimics the masked variable-length batch tasks: the
// row-masking, boundary-accumulate, and last-row gather kernels all write
// their first argument, and each seed must fire on its own.
func emitMaskUndeclared(rt *taskrt.Runtime, ws *fixWS, lens []int, srcs []*tensor.Matrix) {
	rt.Submit(&taskrt.Task{
		Label: "bad-mask",
		In:    []taskrt.Dep{ws.kMerged},
		Fn: func() {
			tensor.MaskRowsZero(ws.dMerged, lens, 3)              // want "task \"bad-mask\" writes ws.dMerged"
			tensor.AddRowsWhere(ws.dGates, ws.merged, lens, 3, 7) // want "task \"bad-mask\" writes ws.dGates"
			tensor.GatherRows(ws.pre, srcs, lens)                 // want "task \"bad-mask\" writes ws.pre"
		},
	})
}

// emitMaskDeclared declares every masked-kernel destination: silent.
func emitMaskDeclared(rt *taskrt.Runtime, ws *fixWS, lens []int, srcs []*tensor.Matrix) {
	rt.Submit(&taskrt.Task{
		Label: "good-mask",
		Out:   []taskrt.Dep{ws.kDMerged, ws.kPre},
		Fn: func() {
			tensor.MaskRowsZero(ws.dMerged, lens, 3) // declared: no diagnostic
			tensor.GatherRows(ws.pre, srcs, lens)    // declared: no diagnostic
		},
	})
}

// emitOpaqueDecl has a declaration list the analyzer cannot resolve:
// conservatively silent even though the write is real.
func deps(ws *fixWS) []taskrt.Dep { return []taskrt.Dep{ws.kMerged} }

func emitOpaqueDecl(rt *taskrt.Runtime, ws *fixWS) {
	rt.Submit(&taskrt.Task{
		Label: "opaque-decl",
		Out:   deps(ws),
		Fn: func() {
			ws.merged.Zero() // unresolvable declarations: no diagnostic
		},
	})
}
