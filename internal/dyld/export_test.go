package dyld

import "repro/internal/kernel"

// ManifestCacheLen reports how many decoded manifests manifestCache holds.
func ManifestCacheLen() int {
	n := 0
	manifestCache.Range(func(_, _ any) bool { n++; return true })
	return n
}

// ResetLinkPlans empties the link-plan cache, so the next exec of every
// root set walks the filesystem (and records a plan again).
func ResetLinkPlans() {
	linkPlans.Range(func(k, _ any) bool { linkPlans.Delete(k); return true })
}

// LinkPlansLen reports how many root sets have a recorded plan.
func LinkPlansLen() int {
	n := 0
	linkPlans.Range(func(_, _ any) bool { n++; return true })
	return n
}

// SetLinkMemo turns the per-kernel link-plan memos on or off.
func SetLinkMemo(on bool) { memoOff = !on }

// LinkMemos reports how many plans k holds a memo of.
func LinkMemos(k *kernel.Kernel) int {
	v, ok := k.Extension(memoExt)
	if !ok {
		return 0
	}
	return len(v.(map[*linkPlan]*planMemo))
}

// LinkMemoHolds reports whether k holds a memo that its root's stamp
// still validates, so the next replay would take its nodes.
func LinkMemoHolds(k *kernel.Kernel) bool {
	v, ok := k.Extension(memoExt)
	st, isStamped := k.Root().(stamped)
	if !ok || !isStamped {
		return false
	}
	gen, pure := st.Stamp()
	for _, m := range v.(map[*linkPlan]*planMemo) {
		if pure && m.gen == gen {
			return true
		}
	}
	return false
}
