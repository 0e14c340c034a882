package kernels

import (
	"sync"

	"pipesim/internal/program"
)

// sharedImage memoizes one benchmark image for the whole process. A linked
// image is immutable, and its lazily derived state (Decoded, Fingerprint)
// is guarded by its own sync.Once, so one image can back every simulation
// in the process, concurrent ones included; its predecode table and the
// content hash that keys the run cache are then computed once per process
// instead of once per caller. Program and KernelProgram stay uncached for
// callers that want a fresh build (code generation, calibration checks).
type sharedImage struct {
	once sync.Once
	img  *program.Image
	err  error
}

var (
	sharedBench   sharedImage
	sharedKernels [len(tableI)]sharedImage
)

// SharedProgram returns the process-wide benchmark image: Program's image,
// built on first use and returned by every later call. Callers must not
// modify it.
func SharedProgram() (*program.Image, error) {
	s := &sharedBench
	s.once.Do(func() { s.img, _, s.err = Program() })
	return s.img, s.err
}

// SharedKernel returns the process-wide image of one loop (1..14):
// KernelProgram's image, built on first use and returned by every later
// call. Callers must not modify it.
func SharedKernel(index int) (*program.Image, error) {
	if index < 1 || index > len(sharedKernels) {
		return KernelProgram(index) // reports the range error
	}
	s := &sharedKernels[index-1]
	s.once.Do(func() { s.img, s.err = KernelProgram(index) })
	return s.img, s.err
}
