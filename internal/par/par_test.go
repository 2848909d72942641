package par

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
)

func TestChunks(t *testing.T) {
	vs := make([]int, 10)
	for i := range vs {
		vs[i] = i
	}
	for _, tc := range []struct{ n, wantParts int }{{1, 1}, {3, 3}, {4, 4}, {10, 10}, {50, 10}, {0, 1}} {
		parts := Chunks(vs, tc.n)
		if len(parts) != tc.wantParts {
			t.Fatalf("Chunks(10, %d) = %d parts, want %d", tc.n, len(parts), tc.wantParts)
		}
		if got := slices.Concat(parts...); !slices.Equal(got, vs) {
			t.Fatalf("Chunks(10, %d) reassembles to %v", tc.n, got)
		}
	}
	if got := Chunks[int](nil, 4); got != nil {
		t.Fatalf("Chunks(nil) = %v", got)
	}
}

// TestRunVisitsEveryIndex runs with more width than work and more work than
// width: every index is visited exactly once either way.
func TestRunVisitsEveryIndex(t *testing.T) {
	for _, width := range []int{1, 3, 64} {
		seen := make([]atomic.Int32, 50)
		if err := Run(context.Background(), len(seen), width, func(i int) error {
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if n := seen[i].Load(); n != 1 {
				t.Fatalf("width %d: index %d visited %d times", width, i, n)
			}
		}
	}
}

func TestRunReturnsFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, width := range []int{1, 4} {
		err := Run(context.Background(), 100, width, func(i int) error {
			if i == 7 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("width %d: err = %v, want boom", width, err)
		}
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	for _, width := range []int{1, 4} {
		err := Run(ctx, 100, width, func(int) error { calls.Add(1); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("width %d: err = %v, want context.Canceled", width, err)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("cancelled Run called f %d times", n)
	}
	if err := Run(ctx, 0, 4, func(int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("empty cancelled Run err = %v", err)
	}
}
