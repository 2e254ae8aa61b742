package core

import (
	"slices"
	"sort"
	"strings"
	"sync"
)

// Interner maps opcode tokens and whole dependency chains to dense uint32
// IDs. Δs, the match index and COMPARECHAINS operate on interned IDs; Δ
// extraction enumerates and diffs chains as hashed token spans and interns
// only the chains a Δ keeps, so the table grows with the distinct Δ
// chains, not with every chain of every snapshot. The "→"-joined string
// form of a chain exists only at the JSON serialization boundary, so the
// on-disk database format is unchanged.
//
// Chain identity is the opcode-token sequence: two chains get the same ID
// iff their token sequences are equal, which (since no opcode contains the
// separator) is exactly when their string renderings are equal. An Interner
// is safe for concurrent use; IDs are stable for the lifetime of the
// process but are not meaningful across processes — only the string form
// is persisted.
type Interner struct {
	mu       sync.RWMutex
	tokIDs   map[string]uint32
	toks     []string
	chainIDs map[string]uint32 // key: little-endian token-ID bytes
	chains   []chainEntry
}

// chainEntry is the immutable record of one interned chain.
type chainEntry struct {
	str  string   // "→"-joined rendering
	toks []uint32 // token-ID sequence
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{
		tokIDs:   map[string]uint32{},
		chainIDs: map[string]uint32{},
	}
}

// interner is the process-wide interner behind the package-level helpers.
// Sharing one instance lets parallel experiment runs reuse each other's
// warm tables and lets JSON round-trips resolve to the same IDs.
var interner = NewInterner()

// Token interns an opcode token.
func (it *Interner) Token(s string) uint32 {
	it.mu.RLock()
	id, ok := it.tokIDs[s]
	it.mu.RUnlock()
	if ok {
		return id
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if id, ok := it.tokIDs[s]; ok {
		return id
	}
	id = uint32(len(it.toks))
	it.toks = append(it.toks, s)
	it.tokIDs[s] = id
	return id
}

// appendChainKey renders a token sequence as map-key bytes.
func appendChainKey(dst []byte, toks []uint32) []byte {
	for _, t := range toks {
		dst = append(dst, byte(t), byte(t>>8), byte(t>>16), byte(t>>24))
	}
	return dst
}

// Chain interns a chain given as a token-ID sequence. The fast path (an
// already-known chain) allocates nothing: the key is built in a stack
// buffer and the map lookup converts it without copying.
func (it *Interner) Chain(toks []uint32) uint32 {
	var arr [4 * (maxChainLen + 1)]byte
	var key []byte
	if 4*len(toks) <= len(arr) {
		key = appendChainKey(arr[:0], toks)
	} else {
		key = appendChainKey(make([]byte, 0, 4*len(toks)), toks)
	}
	it.mu.RLock()
	id, ok := it.chainIDs[string(key)]
	it.mu.RUnlock()
	if ok {
		return id
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if id, ok := it.chainIDs[string(key)]; ok {
		return id
	}
	own := make([]uint32, len(toks))
	copy(own, toks)
	var sb strings.Builder
	for i, t := range own {
		if i > 0 {
			sb.WriteString(chainSep)
		}
		sb.WriteString(it.toks[t])
	}
	id = uint32(len(it.chains))
	it.chains = append(it.chains, chainEntry{str: sb.String(), toks: own})
	it.chainIDs[string(key)] = id
	return id
}

// ChainOfString interns a chain given in its "→"-joined string form (the
// JSON boundary and tests; not a hot path).
func (it *Interner) ChainOfString(s string) uint32 {
	parts := strings.Split(s, chainSep)
	toks := make([]uint32, len(parts))
	for i, p := range parts {
		toks[i] = it.Token(p)
	}
	return it.Chain(toks)
}

// ChainString renders an interned chain.
func (it *Interner) ChainString(id uint32) string {
	it.mu.RLock()
	defer it.mu.RUnlock()
	return it.chains[id].str
}

// chainsView returns a stable snapshot of the chain table. Entries are
// immutable and the table only appends, so the returned slice can be read
// lock-free for every ID handed out before the call.
func (it *Interner) chainsView() []chainEntry {
	it.mu.RLock()
	defer it.mu.RUnlock()
	return it.chains
}

// tokensView is chainsView for the token table.
func (it *Interner) tokensView() []string {
	it.mu.RLock()
	defer it.mu.RUnlock()
	return it.toks
}

// NumChains returns how many distinct chains have been interned.
func (it *Interner) NumChains() int {
	it.mu.RLock()
	defer it.mu.RUnlock()
	return len(it.chains)
}

// InternChain interns a "→"-joined chain string in the process interner.
func InternChain(s string) uint32 { return interner.ChainOfString(s) }

// NumChains returns the process interner's chain count.
func NumChains() int { return interner.NumChains() }

// KnownChain reports whether id is a live chain ID in the process
// interner (database validation uses this to reject dangling references).
func KnownChain(id uint32) bool { return int(id) < interner.NumChains() }

// ChainString renders an interned chain ID back to its string form.
func ChainString(id uint32) string { return interner.ChainString(id) }

// InternChains interns a list of chain strings and returns the sorted,
// deduplicated ID set the comparator operates on.
func InternChains(chains []string) []uint32 {
	if len(chains) == 0 {
		return nil
	}
	ids := make([]uint32, len(chains))
	for i, c := range chains {
		ids[i] = InternChain(c)
	}
	return sortedIDSet(ids)
}

// ChainStrings renders an ID collection back to lexicographically sorted
// chain strings (the serialization order Save has always used). Duplicates
// are preserved, so multisets survive the round trip.
func ChainStrings(ids []uint32) []string {
	if len(ids) == 0 {
		return nil
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = interner.ChainString(id)
	}
	sort.Strings(out)
	return out
}

// sortedIDSet sorts and dedups a chain-ID list in place, returning it.
func sortedIDSet(ids []uint32) []uint32 {
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	out := ids[:1]
	for _, c := range ids[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}
