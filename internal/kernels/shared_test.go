package kernels_test

import (
	"testing"

	"pipesim/internal/kernels"
)

// TestSharedImages: the shared accessors return one image per process,
// with the same content as a fresh build, while Program and KernelProgram
// keep building afresh on every call.
func TestSharedImages(t *testing.T) {
	shared, err := kernels.SharedProgram()
	if err != nil {
		t.Fatal(err)
	}
	again, err := kernels.SharedProgram()
	if err != nil {
		t.Fatal(err)
	}
	if shared != again {
		t.Error("SharedProgram built the benchmark twice")
	}
	fresh, _ := buildProgram(t)
	if fresh == shared {
		t.Error("Program returned the shared image; it must build afresh")
	}
	if fresh.Fingerprint() != shared.Fingerprint() {
		t.Error("shared benchmark image differs from a fresh build")
	}

	for k := 1; k <= 14; k++ {
		a, err := kernels.SharedKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := kernels.SharedKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("SharedKernel(%d) built the loop twice", k)
		}
		f, err := kernels.KernelProgram(k)
		if err != nil {
			t.Fatal(err)
		}
		if f == a {
			t.Errorf("KernelProgram(%d) returned the shared image; it must build afresh", k)
		}
		if f.Fingerprint() != a.Fingerprint() {
			t.Errorf("shared loop %d image differs from a fresh build", k)
		}
	}
	for _, k := range []int{0, 15} {
		if _, err := kernels.SharedKernel(k); err == nil {
			t.Errorf("SharedKernel(%d) succeeded, want a range error", k)
		}
	}
}
