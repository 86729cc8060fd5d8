package safety

import (
	"fmt"
	"testing"
)

// recordTB captures failures and skips instead of reporting them, so
// the tests can assert on MaxAllocs's verdicts.
type recordTB struct {
	testing.TB
	failed  bool
	skipped bool
	msg     string
}

func (r *recordTB) Helper() {}
func (r *recordTB) Errorf(format string, args ...any) {
	r.failed = true
	r.msg = fmt.Sprintf(format, args...)
}
func (r *recordTB) Skip(args ...any) { r.skipped = true }

func TestMaxAllocsWithinBudgetPasses(t *testing.T) {
	if RaceEnabled {
		t.Skip("verdicts are skipped under -race by design")
	}
	var sink int
	rec := &recordTB{}
	got := MaxAllocs(rec, 100, 0, func() { sink++ })
	if rec.failed {
		t.Errorf("non-allocating func failed a 0 budget: %s", rec.msg)
	}
	if got != 0 {
		t.Errorf("measured %.1f allocs for a non-allocating func", got)
	}
	_ = sink
}

func TestMaxAllocsOverBudgetFails(t *testing.T) {
	if RaceEnabled {
		t.Skip("verdicts are skipped under -race by design")
	}
	var sink []byte
	rec := &recordTB{}
	got := MaxAllocs(rec, 100, 0, func() { sink = make([]byte, 1<<12) })
	if !rec.failed {
		t.Errorf("allocating func (%.1f allocs/run) passed a 0 budget", got)
	}
	if got < 1 {
		t.Errorf("measured %.1f allocs for an allocating func", got)
	}
	_ = sink
}

func TestMaxAllocsSkipsUnderRace(t *testing.T) {
	if !RaceEnabled {
		t.Skip("only meaningful under -race")
	}
	rec := &recordTB{}
	MaxAllocs(rec, 1, 0, func() {})
	if !rec.skipped {
		t.Error("MaxAllocs did not skip under the race detector")
	}
}

func TestLeastBytesMeasuresWhatFAllocates(t *testing.T) {
	if RaceEnabled {
		t.Skip("byte figures are inflated under -race")
	}
	var sink []byte
	if got := LeastBytes(3, func() {}); got != 0 {
		t.Errorf("a call that allocates nothing measured %d bytes", got)
	}
	if got := LeastBytes(3, func() { sink = make([]byte, 1<<12) }); got < 1<<12 || got >= 1<<13 {
		t.Errorf("a 4 KiB allocation measured %d bytes", got)
	}
	_ = sink
}
