package exec_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/spmdrt"
	"repro/internal/suite"
)

func contextRunner(t *testing.T, kernel string, params map[string]int64) *core.Runner {
	t.Helper()
	k, err := suite.Get(kernel)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if params == nil {
		params = k.Params
	}
	r, err := c.NewRunner(exec.Config{Workers: 4, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunContextCancel pins the cancellation contract: a cancelled or
// expired context aborts the run with a *spmdrt.CancelError that unwraps
// to the context's error, and the worker team tears down instead of
// hanging — both when the context dies before the run starts and when it
// dies mid-run.
func TestRunContextCancel(t *testing.T) {
	t.Run("pre-cancelled", func(t *testing.T) {
		r := contextRunner(t, "jacobi1d", nil)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := r.RunContext(ctx)
		var ce *spmdrt.CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("want *spmdrt.CancelError, got %v", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("CancelError does not unwrap to context.Canceled: %v", err)
		}
	})
	t.Run("deadline mid-run", func(t *testing.T) {
		// A large input so the run reliably outlives the deadline.
		r := contextRunner(t, "jacobi2d", map[string]int64{"N": 256, "T": 1 << 20})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := r.RunContext(ctx)
		var ce *spmdrt.CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("want *spmdrt.CancelError, got %v", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("CancelError does not unwrap to DeadlineExceeded: %v", err)
		}
		// The deadline hit a leased team: the error carries its run
		// generation and where each of its workers was.
		if ce.Generation < 1 || len(ce.Workers) != r.Width() {
			t.Fatalf("CancelError gen %d with %d worker statuses, want gen >= 1 and %d", ce.Generation, len(ce.Workers), r.Width())
		}
		for w, st := range ce.Workers {
			if st.Worker != w || (st.Blocked && st.Prim == "") {
				t.Errorf("worker %d status %+v", w, st)
			}
		}
		// Teardown must be prompt (the unwind grace is 2s; a hang here
		// would mean cancellation never reached blocked workers).
		if d := time.Since(start); d > 10*time.Second {
			t.Fatalf("cancellation took %s to tear the team down", d)
		}
	})
	t.Run("deadline mid-run, narrowed", func(t *testing.T) {
		// No team: the run polls its context once a time step, on the
		// caller's goroutine, so once RunContextOn has returned nothing
		// writes the state any more.
		r := contextRunner(t, "jacobi1d", map[string]int64{"N": 64, "T": 1 << 40})
		if r.Width() != 1 || exec.TakesTeam(r.Runner) {
			t.Fatalf("runner leases a team: %v", r.WidthDecision())
		}
		st, err := interp.NewState(r.Compiled().Prog, map[string]int64{"N": 64, "T": 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		st.SeedDeterministic()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		start := time.Now()
		done := make(chan error, 1)
		go func() {
			_, err := r.RunContextOn(ctx, st)
			done <- err
		}()
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("a 30ms deadline did not stop the width-1 run in 10s")
		}
		took := time.Since(start)
		var ce *spmdrt.CancelError
		if !errors.As(err, &ce) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want a *spmdrt.CancelError unwrapping DeadlineExceeded, got %v", err)
		}
		if took > time.Second {
			t.Fatalf("a 30ms deadline stopped the run after %s", took)
		}
		sum := st.Checksum()
		time.Sleep(20 * time.Millisecond)
		if after := st.Checksum(); math.Float64bits(after) != math.Float64bits(sum) {
			t.Fatalf("the state changed after RunContextOn returned: checksum %v, then %v", sum, after)
		}
	})
	t.Run("deadline mid-run, narrowed nest", func(t *testing.T) {
		// The time loop runs as a nest of the i loop: one entry whose rows
		// are the time steps, each of which polls the stop flag.
		c, err := core.Compile(`
program decay
param N, T
real A(N)
do t = 1, T
  do i = 1, N
    A(i) = 0.5 * A(i) + 1.0
  end do
end do
end
`, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.NewRunner(exec.Config{Workers: 1, Params: map[string]int64{"N": 64, "T": 1 << 40}})
		if err != nil {
			t.Fatal(err)
		}
		if exec.TakesTeam(r.Runner) {
			t.Fatalf("runner leases a team: %v", r.WidthDecision())
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		start := time.Now()
		done := make(chan error, 1)
		go func() {
			_, err := r.RunContext(ctx)
			done <- err
		}()
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("a 30ms deadline did not stop the nest in 10s")
		}
		var ce *spmdrt.CancelError
		if !errors.As(err, &ce) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want a *spmdrt.CancelError unwrapping DeadlineExceeded, got %v", err)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("a 30ms deadline stopped the nest after %s", took)
		}
	})
	t.Run("uncancelled context still runs", func(t *testing.T) {
		r := contextRunner(t, "jacobi1d", nil)
		res, err := r.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.State == nil {
			t.Fatal("nil final state from a successful RunContext")
		}
	})
}

// TestConfigValidation pins the typed rejection of bad configs: worker
// counts below one and unknown backends fail construction with a
// *exec.ConfigError naming the field, instead of panicking at run time.
func TestConfigValidation(t *testing.T) {
	k, err := suite.Get("jacobi1d")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(k.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		cfg   exec.Config
		field string
	}{
		{"zero workers", exec.Config{Workers: 0, Params: k.Params}, "Workers"},
		{"negative workers", exec.Config{Workers: -3, Params: k.Params}, "Workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.NewRunner(tc.cfg)
			var ce *exec.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("want *exec.ConfigError, got %v", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
		})
	}
}
