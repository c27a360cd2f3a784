// Test fixture for the constslot analyzer: kernel-typed closures capturing
// predicate constants. Mirrors the shape of engine/kernels.go and
// sql/compile.go without importing them.
package constslot

// blockFn mirrors the engine's kernel function types.
type blockFn func(lo, hi int, out []int) []int

// numEval mirrors the SQL compiler's compiled-expression type.
type numEval func(rows []int, dst []float64) error

// Kernel mirrors the engine's compiled-kernel record.
type Kernel struct {
	FilterBlock blockFn
}

// KernelArgs mirrors the per-run constant record; reading it inside a
// kernel is the sanctioned way to get at constants.
type KernelArgs struct {
	lo, hi float64
}

var packageCut float64 // package state is pools/config, never flagged

// badKernelField: a closure assigned to a Kernel field captures a local
// float64.
func badKernelField(cut float64) Kernel {
	return Kernel{
		FilterBlock: func(lo, hi int, out []int) []int {
			for i := lo; i < hi; i++ {
				if float64(i) > cut { // want `kernel closure captures float64 variable "cut"`
					out = append(out, i)
				}
			}
			return out
		},
	}
}

// badDeclared: a closure bound to a variable declared with a kernel func
// type captures an int64 bound.
func badDeclared(tmin int64) blockFn {
	var k blockFn = func(lo, hi int, out []int) []int {
		for i := lo; i < hi; i++ {
			if int64(i) >= tmin { // want `kernel closure captures int64 variable "tmin"`
				out = append(out, i)
			}
		}
		return out
	}
	return k
}

// badReturned: a closure returned as a kernel func type captures a float64.
func badReturned(c float64) numEval {
	return func(rows []int, dst []float64) error {
		for i := range dst[:len(rows)] {
			dst[i] = c // want `kernel closure captures float64 variable "c"`
		}
		return nil
	}
}

// goodArgs: constants read from the KernelArgs record, lengths and package
// state captured freely.
func goodArgs(n int) blockFn {
	return func(lo, hi int, out []int) []int {
		args := KernelArgs{lo: packageCut}
		for i := lo; i < hi; i++ {
			if float64(i) > args.lo && i < n { // n is int: not a predicate constant
				out = append(out, i)
			}
		}
		return out
	}
}

// goodPlainClosure: a closure in no kernel position may capture anything.
func goodPlainClosure(cut float64) func() float64 {
	return func() float64 { return cut }
}
