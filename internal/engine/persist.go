// Cross-process serialization of cached compilations.
//
// A cache value (cachedCompile) is its own record: the artifact marshals
// itself (internal/lir/wire.go — float immediates as bits, the derived
// block metadata and fused stream rebuilt on decode by the functions a
// cold compile calls), and the policy's decision is plain data that
// travels as the JSON of CompileDecision — a match carries its witness
// chain as text, and the policy interns it again when the decision is
// replayed in the reading process. The store wraps these bytes in its
// checksummed envelope, so this layer can trust what it is handed: a
// record that fails to decode here is version skew, not corruption, and
// degrades to a cache miss and a cold compile.
package engine

import (
	"encoding/json"
	"fmt"

	"github.com/jitbull/jitbull/internal/jitqueue"
)

// persistVersion is the engine-record layout version inside the store's
// envelope (the envelope's own version covers the container). Bump on any
// incompatible change to the JSON of cachedCompile, CompileDecision or
// lir.Code. 3: lir.Code marshals itself and ConstSlot.Imm travels as bits.
const persistVersion = 3

// storedCompile is a cache value under its layout version.
type storedCompile struct {
	V int `json:"v"`
	*cachedCompile
}

// CacheCodec implements jitqueue.Codec over the engine's cache values. It
// needs nothing from the policy: a decision is persisted as it stands.
type CacheCodec struct{}

// NewCacheCodec builds the codec.
func NewCacheCodec() *CacheCodec { return &CacheCodec{} }

var _ jitqueue.Codec = (*CacheCodec)(nil)

// Encode implements jitqueue.Codec.
func (c *CacheCodec) Encode(v any) ([]byte, error) {
	cc, ok := v.(*cachedCompile)
	if !ok {
		return nil, fmt.Errorf("cache value is a %T, not a compilation", v)
	}
	return json.Marshal(storedCompile{persistVersion, cc})
}

// Decode implements jitqueue.Codec.
func (c *CacheCodec) Decode(data []byte) (any, error) {
	rec := storedCompile{cachedCompile: &cachedCompile{}}
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("cache record does not parse: %w", err)
	}
	if rec.V != persistVersion {
		return nil, fmt.Errorf("cache record version %d (want %d)", rec.V, persistVersion)
	}
	if rec.Code == nil && !rec.Decision.NoJIT {
		return nil, fmt.Errorf("cache record carries neither artifact nor NoJIT verdict")
	}
	return rec.cachedCompile, nil
}
