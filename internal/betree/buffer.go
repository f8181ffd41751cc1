package betree

import (
	"betrfs/internal/keys"
	"betrfs/internal/kmem"
	"betrfs/internal/sim"
)

// buffer is one interior node's per-child message log. Messages are kept
// in arrival order, which — because messages only ever move downward — is
// also ascending MSN order.
//
// The backing storage is modeled through the kernel allocator: buffers
// grow as messages arrive and cascaded flushes can balloon them past their
// eventual on-disk size (§2.3 "Small Writes and Buffer Resizing"). Under
// the legacy allocator every growth step is a vmalloc+copy; the
// cooperative interfaces (§5) make growth nearly free.
type buffer struct {
	msgs  []*Msg
	bytes int
	kbuf  *kmem.Buf
}

func (b *buffer) len() int { return len(b.msgs) }

func (b *buffer) append(m *Msg) {
	b.msgs = append(b.msgs, m)
	b.bytes += m.memBytes()
}

// appendCharged is append plus the allocator work of growing the backing
// buffer.
func (b *buffer) appendCharged(alloc *kmem.Allocator, m *Msg) {
	old := b.bytes
	b.append(m)
	if b.kbuf == nil {
		b.kbuf = alloc.Alloc(maxInt(b.bytes, 4096))
	} else if b.bytes > b.kbuf.Usable {
		b.kbuf = alloc.GrowDoubling(b.kbuf, b.bytes, old)
	}
}

func maxInt(a, c int) int {
	if a > c {
		return a
	}
	return c
}

// restore prepends msgs, which takeAll previously removed, preserving MSN
// order against anything appended since. It is uncharged: it runs while
// an ioerr.Abort panic unwinds the flush path, and charging the allocator
// there could itself abort (a panic during a panic crashes the process).
// The allocator therefore under-counts the restored bytes until the next
// appendCharged regrows the buffer.
func (b *buffer) restore(msgs []*Msg) {
	merged := make([]*Msg, 0, len(msgs)+len(b.msgs))
	merged = append(merged, msgs...)
	merged = append(merged, b.msgs...)
	b.msgs = merged
	for _, m := range msgs {
		b.bytes += m.memBytes()
	}
}

// takeAll removes and returns every message, oldest first, releasing the
// backing buffer through the allocator.
func (b *buffer) takeAll(alloc *kmem.Allocator) []*Msg {
	out := b.msgs
	b.msgs = nil
	b.bytes = 0
	if b.kbuf != nil {
		alloc.FreeSized(b.kbuf)
		b.kbuf = nil
	}
	return out
}

// drop removes the message at index i, releasing any page reference.
func (b *buffer) drop(i int) {
	m := b.msgs[i]
	b.bytes -= m.memBytes()
	m.Val.Release()
	b.msgs = append(b.msgs[:i], b.msgs[i+1:]...)
}

// collect appends to out the messages relevant to key (exact-key point
// messages and covering range deletes) with MSN above after, charging one
// comparison per message examined. Range messages charge two comparisons,
// reflecting the paper's observation that checking range messages is more
// expensive than point messages (§4).
func (b *buffer) collect(env *sim.Env, key []byte, after MSN, out []*Msg) []*Msg {
	for _, m := range b.msgs {
		if m.Type == MsgRangeDelete {
			env.Compare(len(key))
			env.Compare(len(key))
			if m.MSN > after && m.covers(key) {
				out = append(out, m)
			}
			continue
		}
		env.Compare(len(key))
		if m.MSN > after && keys.Compare(m.Key, key) == 0 {
			out = append(out, m)
		}
	}
	return out
}

// collectRange appends messages overlapping [lo, hi) with MSN above after.
func (b *buffer) collectRange(env *sim.Env, lo, hi []byte, after MSN, out []*Msg) []*Msg {
	for _, m := range b.msgs {
		env.Compare(len(lo))
		env.Compare(len(hi))
		if m.MSN > after && m.overlapsRange(lo, hi) {
			out = append(out, m)
		}
	}
	return out
}

// removeOverlapping removes and returns (in buffer order) all messages
// overlapping [lo, hi). Used by the apply-on-query flush path, which pushes
// pending messages into a dirty leaf.
func (b *buffer) removeOverlapping(env *sim.Env, lo, hi []byte) []*Msg {
	var out []*Msg
	kept := b.msgs[:0]
	for _, m := range b.msgs {
		env.Compare(len(lo))
		env.Compare(len(hi))
		if m.overlapsRange(lo, hi) {
			// Range deletes that extend beyond the leaf must stay:
			// they still affect other leaves.
			if m.Type == MsgRangeDelete && !(keys.Compare(lo, m.Key) <= 0 && keys.Compare(m.EndKey, hi) <= 0) {
				out = append(out, m)
				kept = append(kept, m)
				continue
			}
			b.bytes -= m.memBytes()
			out = append(out, m)
			continue
		}
		kept = append(kept, m)
	}
	b.msgs = kept
	return out
}
