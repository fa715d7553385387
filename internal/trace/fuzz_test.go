package trace

import (
	"strings"
	"testing"
)

// FuzzRead asserts the parser never panics, that at Parallelism 1, 2 and
// 8 it yields the reference reader's trace byte for byte or its exact
// error text, and that anything it accepts survives a write/read round
// trip.
func FuzzRead(f *testing.F) {
	f.Add("# viva trace v1\nresource h host -\nset 0 h power 5\nend 1\n")
	f.Add("resource a group -\nresource b host a\nedge a b\nadd 1 b usage 2\nstate 2 b compute\n")
	f.Add("set 0 ghost x 1\n")
	f.Add("resource h host -\nset nan h power nan\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		assertNativeMatchesReference(t, "fuzz", input)
		tr, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := Write(&sb, tr); err != nil {
			t.Fatalf("accepted trace failed to serialise: %v", err)
		}
		if _, err := Read(strings.NewReader(sb.String())); err != nil {
			t.Fatalf("round trip of accepted trace failed: %v", err)
		}
	})
}
