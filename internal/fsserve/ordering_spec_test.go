package fsserve

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"betrfs/internal/fsrpc"
)

// mnemonicRE matches an upper-case op mnemonic in DESIGN.md prose.
var mnemonicRE = regexp.MustCompile(`\b[A-Z]{4,}\b`)

// TestWireSpecOrderingMatchesCode diffs the DESIGN.md §13.5 ordering
// bullets against chainKey in both directions: every op a bullet names
// has that bullet's chain class in code (none, per handle, or the session
// namespace chain), and every op chainKey puts on a chain is named in the
// matching bullet.
func TestWireSpecOrderingMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	i, j := strings.Index(doc, "### 13.5"), strings.Index(doc, "### 13.6")
	if i < 0 || j < i {
		t.Fatal("cannot locate DESIGN.md §13.5")
	}

	const (
		none = iota
		handle
		namespace
	)
	classOf := func(op fsrpc.Op) int {
		key, ok := chainKey(&fsrpc.Request{Op: op, Handle: 42})
		switch {
		case !ok:
			return none
		case key == 42|handleKeyBit:
			return handle
		case key == namespaceKey:
			return namespace
		}
		t.Fatalf("%s chains on unexpected key %#x", op, key)
		return -1
	}
	byName := map[string]fsrpc.Op{}
	for _, op := range fsrpc.Ops {
		byName[strings.ToUpper(op.String())] = op
	}

	named := map[fsrpc.Op]int{}
	for _, bullet := range strings.Split(doc[i:j], "\n* ")[1:] {
		bullet, _, _ = strings.Cut(bullet, "\n\n")
		var class int
		switch {
		case strings.HasPrefix(bullet, "**Read-class ops"):
			class = none
		case strings.Contains(bullet, "order per handle**"):
			class = handle
		case strings.Contains(bullet, "order per session**"):
			class = namespace
		default:
			continue
		}
		for _, m := range mnemonicRE.FindAllString(bullet, -1) {
			if op, ok := byName[m]; ok {
				named[op] = class
			}
		}
	}
	if len(named) == 0 {
		t.Fatal("§13.5 names no ops")
	}
	for _, op := range fsrpc.Ops {
		got := classOf(op)
		want, ok := named[op]
		if ok && got != want {
			t.Errorf("§13.5 puts %s in chain class %d, chainKey in %d", op, want, got)
		}
		if !ok && got != none {
			t.Errorf("chainKey chains %s (class %d) but §13.5 does not name it", op, got)
		}
	}
}
