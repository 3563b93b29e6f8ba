package analysis

import (
	"strings"
	"testing"
)

func TestPoolBalanceFixture(t *testing.T) {
	runFixture(t, PoolBalance, "poolbalance")
}

func TestPoolEscapeFixture(t *testing.T) {
	runFixture(t, PoolEscape, "poolescape")
}

func TestLockBalanceFixture(t *testing.T) {
	runFixture(t, LockBalance, "lockbalance")
}

// TestLifetimeOneVerdictPerRule runs the three lifetime rules together
// over the poolescape fixture — one engine pass, three views of it — and
// checks the cases where the old separate engines disagreed about a
// function: each bug comes out once, under the rule that owns it.
func TestLifetimeOneVerdictPerRule(t *testing.T) {
	pkg := loadFixture(t, "poolescape")
	diags, err := RunPackage(pkg, []*Analyzer{PoolBalance, PoolEscape, LockBalance}, RunOptions{NoSuppress: true})
	if err != nil {
		t.Fatal(err)
	}
	for fn, want := range map[string][]string{
		// Declared and read before the acquire: unacquired is not released.
		"okMentionBeforeAcquire": nil,
		// Early release on one branch under a deferred one: the deferred
		// release silences the leak, not the flow.
		"badJoinUse": {"poolescape: use after Put"},
		// No deferred release: the conditional release leaves the other
		// path holding the scratch, and that is poolbalance's to say.
		"badPathUse": {"poolescape: use after Put", "poolescape: double Put"},
		// Ownership handed to the caller is a leak by poolbalance's book
		// and nothing to poolescape.
		"okReturnTransfer": {"poolbalance: not released"},
	} {
		fd := fixtureFunc(t, pkg, fn)
		lo, hi := pkg.Fset.Position(fd.Pos()).Line, pkg.Fset.Position(fd.End()).Line
		var got []string
		for _, d := range diags {
			if d.Line >= lo && d.Line <= hi {
				got = append(got, d.Rule+": "+d.Message)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: got %d verdicts %q, want %d %q", fn, len(got), got, len(want), want)
			continue
		}
		for i, w := range want {
			rule, msg, _ := strings.Cut(w, ": ")
			if !strings.HasPrefix(got[i], rule+": ") || !strings.Contains(got[i], msg) {
				t.Errorf("%s: verdict %d = %q, want rule %s mentioning %q", fn, i, got[i], rule, msg)
			}
		}
	}
}
