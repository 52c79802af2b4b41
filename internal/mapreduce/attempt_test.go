package mapreduce

import (
	"errors"
	"fmt"
	"testing"
)

// TestRetryLost pins the lost-lease budget: a dispatch lost up to
// lostLeaseRetries times in a row still returns its result, one lost
// once more surfaces ErrTaskLost, and any other error returns at once,
// with no re-dispatch.
func TestRetryLost(t *testing.T) {
	if lostLeaseRetries != 3 {
		t.Fatalf("lostLeaseRetries = %d, want 3", lostLeaseRetries)
	}
	other := errors.New("reduce input count mismatch")
	cases := []struct {
		name      string
		lost      int   // dispatches that lose their lease before one runs
		final     error // what the first dispatch that is not lost returns
		wantCalls int
		wantErr   error
	}{
		{"never lost", 0, nil, 1, nil},
		{"lost 3 times", 3, nil, 4, nil},
		{"lost 4 times", 4, nil, 4, ErrTaskLost},
		{"other error", 0, other, 1, other},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			calls := 0
			want := &TaskResult{Cost: 7}
			got, err := retryLost(func() (*TaskResult, error) {
				calls++
				if calls <= c.lost {
					return nil, fmt.Errorf("lease of worker 2 expired: %w", ErrTaskLost)
				}
				if c.final != nil {
					return nil, c.final
				}
				return want, nil
			})
			if calls != c.wantCalls {
				t.Errorf("%d dispatches, want %d", calls, c.wantCalls)
			}
			if c.wantErr == nil {
				if err != nil || got != want {
					t.Errorf("got (%v, %v), want the body's result", got, err)
				}
			} else if !errors.Is(err, c.wantErr) {
				t.Errorf("err = %v, want %v", err, c.wantErr)
			}
		})
	}
}
