package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// setProcs sets the pool width for the rest of the test.
func setProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestMapOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{0, 1, 2, 7, 64} {
		runtime.GOMAXPROCS(workers)
		out, err := Map(33, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 33 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	setProcs(t, 4)
	out, err := Map[int](0, func(i int) (int, error) { t.Fatal("called"); return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	// Several cells fail; the reported error must be the one a serial
	// loop would have hit first, regardless of scheduling.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(workers)
		_, err := Map(100, func(i int) (int, error) {
			if i == 7 || i == 40 || i == 99 {
				return 0, fmt.Errorf("cell %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 7" {
			t.Fatalf("workers=%d: err = %v, want cell 7", workers, err)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	setProcs(t, workers)
	var inFlight, peak int64
	var mu sync.Mutex
	_, err := Map(50, func(i int) (int, error) {
		cur := atomic.AddInt64(&inFlight, 1)
		mu.Lock()
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		defer atomic.AddInt64(&inFlight, -1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Fatalf("peak concurrency %d > %d workers", peak, workers)
	}
}

func TestEach(t *testing.T) {
	setProcs(t, 4)
	var n int64
	if err := Each(20, func(i int) error { atomic.AddInt64(&n, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("ran %d cells", n)
	}
	wantErr := errors.New("boom")
	if err := Each(5, func(i int) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeriveSeedStability(t *testing.T) {
	a := DeriveSeed(1, 0, "Diabetes", "gpt-4o")
	b := DeriveSeed(1, 0, "Diabetes", "gpt-4o")
	if a != b {
		t.Fatal("DeriveSeed not stable")
	}
	if DeriveSeed(1, 1, "Diabetes", "gpt-4o") == a {
		t.Fatal("iteration must change the seed")
	}
	if DeriveSeed(1, 0, "CMC", "gpt-4o") == a {
		t.Fatal("dataset must change the seed")
	}
	// Concatenation ambiguity: ("ab","c") and ("a","bc") must differ.
	if DeriveSeed(1, 0, "ab", "c") == DeriveSeed(1, 0, "a", "bc") {
		t.Fatal("part boundaries must be significant")
	}
}
