// Package store implements the wide-access Model & Feature Store of the
// paper's platform architecture (Fig. 1, §2.1): the component that
// receives model+feature bundles from accepted training pipelines and
// exposes them to other teams and to the serving infrastructure.
//
// The store sits in the *untrusted* domain of the threat model (§2.2):
// anything published here is considered released, which is exactly why
// Sage makes the process that produces bundles globally DP. Bundles
// therefore carry provenance — the pipeline, the privacy budget spent,
// the blocks used, and the validator's decision — so an auditor can
// reconcile every release against the stream's accounting.
package store

import (
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/privacy"
)

// Provenance records where a bundle came from.
type Provenance struct {
	// Pipeline is the producing pipeline's name.
	Pipeline string
	// Spent is the privacy budget the release consumed.
	Spent privacy.Budget
	// Blocks are the stream blocks the training read.
	Blocks []data.BlockID
	// Decision is the validator's verdict ("ACCEPT").
	Decision string
	// Quality is the DP quality estimate at release time.
	Quality float64
}

// ModelSpec is a serializable description of a trained model. Exactly
// one Kind is valid.
type ModelSpec struct {
	Kind string // "linear", "logistic", "linear-sgd", "mlp-reg", "mlp-clf"
	// Linear models.
	Weights []float64
	Bias    float64
	// SGD-parameterized models (logistic / linear-sgd / MLPs).
	Dim    int
	Hidden []int
	Params []float64
}

// Serialize converts a supported model into a spec. It returns an error
// for unknown model types.
func Serialize(m ml.Model) (ModelSpec, error) {
	switch v := m.(type) {
	case *ml.LinearModel:
		return ModelSpec{
			Kind:    "linear",
			Weights: append([]float64{}, v.Weights...),
			Bias:    v.Bias,
		}, nil
	case *ml.LogisticRegression:
		return ModelSpec{
			Kind: "logistic", Dim: v.Dim(),
			Params: append([]float64{}, v.Params()...),
		}, nil
	case *ml.SGDLinearRegression:
		return ModelSpec{
			Kind: "linear-sgd", Dim: v.Dim(),
			Params: append([]float64{}, v.Params()...),
		}, nil
	case *ml.MLP:
		kind := "mlp-reg"
		if v.Kind() == ml.BinaryClassification {
			kind = "mlp-clf"
		}
		return ModelSpec{
			Kind: kind, Dim: v.InputDim(), Hidden: v.Hidden(),
			Params: append([]float64{}, v.Params()...),
		}, nil
	case ml.ConstantModel:
		return ModelSpec{Kind: "constant", Bias: v.Value}, nil
	default:
		return ModelSpec{}, fmt.Errorf("store: unsupported model type %T", m)
	}
}

// InputDim returns the feature-vector length the spec's model expects,
// or 0 when any length is acceptable (constant models). Serving uses it
// to reject malformed predict requests before they reach Predict.
func (s ModelSpec) InputDim() int {
	switch s.Kind {
	case "linear":
		return len(s.Weights)
	case "logistic", "linear-sgd", "mlp-reg", "mlp-clf":
		return s.Dim
	default:
		return 0
	}
}

// Instantiate reconstructs a usable model from the spec. A spec whose
// dimensions do not account for exactly its parameters is an error, and
// is found before anything is sized from those dimensions: specs arrive
// over the network (replica push), and a model must never be allocated
// from numbers its payload cannot back, nor share memory with the spec.
func (s ModelSpec) Instantiate() (ml.Model, error) {
	s.Weights, s.Params = slices.Clone(s.Weights), slices.Clone(s.Params)
	return s.build()
}

// build is Instantiate over the spec's own slices, which a linear model
// or an MLP keeps: the store builds a release over its immutable copy.
func (s ModelSpec) build() (ml.Model, error) {
	switch s.Kind {
	case "linear":
		return &ml.LinearModel{Weights: s.Weights, Bias: s.Bias}, nil
	case "constant":
		return ml.ConstantModel{Value: s.Bias}, nil
	case "logistic", "linear-sgd":
		if err := s.checkParams(nil); err != nil {
			return nil, err
		}
		if s.Kind == "logistic" {
			m := ml.NewLogisticRegression(s.Dim)
			copy(m.Params(), s.Params)
			return m, nil
		}
		m := ml.NewSGDLinearRegression(s.Dim)
		copy(m.Params(), s.Params)
		return m, nil
	case "mlp-reg", "mlp-clf":
		if s.Dim < 1 {
			return nil, fmt.Errorf("store: %s input dimension %d", s.Kind, s.Dim)
		}
		if err := s.checkParams(s.Hidden); err != nil {
			return nil, err
		}
		kind := ml.Regression
		if s.Kind == "mlp-clf" {
			kind = ml.BinaryClassification
		}
		return ml.MLPFromParams(kind, s.Dim, s.Hidden, s.Params), nil
	default:
		return nil, fmt.Errorf("store: unknown model kind %q", s.Kind)
	}
}

// checkParams verifies that len(Params) is what a dense network of
// widths Dim → hidden... → 1 holds: per layer, a weight matrix and a
// bias vector (no hidden layers is the linear/logistic layout, Dim+1).
// It divides rather than multiplies, so absurd widths cannot overflow
// their way to a match.
func (s ModelSpec) checkParams(hidden []int) error {
	left, in := len(s.Params), s.Dim
	for l := 0; l <= len(hidden); l++ {
		out := 1
		if l < len(hidden) {
			out = hidden[l]
		}
		// The layer holds out*(in+1) parameters.
		if in < 0 || out < 1 || in >= left/out {
			left = -1
			break
		}
		left -= out * (in + 1)
		in = out
	}
	if left != 0 {
		return fmt.Errorf("store: %s of widths %d→%v→1 does not match its %d params", s.Kind, s.Dim, hidden, len(s.Params))
	}
	return nil
}

// Bundle is one released model+features artifact (§2.1: the model is
// "bundled with its feature transformation operators and pushed into
// serving").
type Bundle struct {
	Name    string
	Version int
	Model   ModelSpec
	// Features carries released aggregate features by name, e.g.
	// Listing 1's per-hour speed table.
	Features   map[string][]float64
	Provenance Provenance
	// model is the release's model, built once as the release enters a
	// store (Publish, Apply) and predicted with by every request that
	// serves it. A bundle the store did not hand out carries none.
	model ml.Model
}

// CanonicalBytes returns the bundle's canonical serialization
// (internal/core's audit encoding: fixed field order, sorted feature
// keys, IEEE-754 bit patterns) — the one format a release has. Two
// bundles are the same release iff their canonical bytes are equal, and
// the serialization is invertible (DecodeCanonicalBundle), so the same
// bytes are the body of a replica push, the preimage of the digest that
// push verifies, the payload the write-ahead log journals for each
// publish (the WAL record's checksum therefore covers exactly the bytes
// the digest covers), and the record replay decodes during crash
// recovery. The buffer is sized up front: one allocation per encoding.
func (b *Bundle) CanonicalBytes() []byte {
	m, p := &b.Model, &b.Provenance
	keys := b.FeatureKeys()
	// 15 fixed words, then what the strings and slices hold.
	n := 8*(15+len(m.Weights)+len(m.Hidden)+len(m.Params)+len(p.Blocks)) +
		len(b.Name) + len(m.Kind) + len(p.Pipeline) + len(p.Decision)
	for _, k := range keys {
		n += 16 + len(k) + 8*len(b.Features[k])
	}
	buf := core.AppendString(make([]byte, 0, n), b.Name)
	buf = core.AppendUint(buf, uint64(b.Version))
	buf = core.AppendString(buf, m.Kind)
	buf = core.AppendFloats(buf, m.Weights)
	buf = core.AppendFloat(buf, m.Bias)
	buf = core.AppendUint(buf, uint64(m.Dim))
	buf = core.AppendUint(buf, uint64(len(m.Hidden)))
	for _, h := range m.Hidden {
		buf = core.AppendUint(buf, uint64(h))
	}
	buf = core.AppendFloats(buf, m.Params)
	buf = core.AppendUint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = core.AppendString(buf, k)
		buf = core.AppendFloats(buf, b.Features[k])
	}
	// Provenance: the block list in ledger order, as recorded — the
	// order blocks were read is itself part of the audit trail.
	buf = core.AppendString(buf, p.Pipeline)
	buf = core.AppendFloat(buf, p.Spent.Epsilon)
	buf = core.AppendFloat(buf, p.Spent.Delta)
	buf = core.AppendBlockIDs(buf, p.Blocks)
	buf = core.AppendString(buf, p.Decision)
	return core.AppendFloat(buf, p.Quality)
}

// DecodeCanonicalBundle inverts CanonicalBytes. Its input is a journal
// record during recovery and a network body on a replica, so it accepts
// exactly what CanonicalBytes can emit for a real release: integers a
// Go int holds on every platform, feature keys strictly ascending, no
// trailing bytes. Whatever it accepts therefore re-encodes to the same
// bytes, and a pushed body is its own digest preimage.
func DecodeCanonicalBundle(raw []byte) (*Bundle, error) {
	c := core.NewCursor(raw)
	// count reads a version, dimension or layer width. No release has
	// one past 2^31; an unchecked conversion would turn a pushed 2^63
	// into a negative int and panic the first make() sized from it.
	var rangeErr error
	count := func(what string) int {
		v := c.Uint()
		if v > math.MaxInt32 && rangeErr == nil {
			rangeErr = fmt.Errorf("store: canonical bundle: %s %d out of range", what, v)
		}
		return int(v)
	}
	var b Bundle
	b.Name = c.String()
	b.Version = count("version")
	b.Model.Kind = c.String()
	b.Model.Weights = c.Floats()
	b.Model.Bias = c.Float()
	b.Model.Dim = count("model dimension")
	nHidden := c.Uint()
	if c.Err() == nil && nHidden > 0 {
		// Bound before allocating (divide — int(nHidden)*8 on a damaged
		// length field overflows).
		if nHidden > uint64(c.Remaining())/8 {
			return nil, fmt.Errorf("store: canonical bundle: truncated hidden sizes")
		}
		b.Model.Hidden = make([]int, nHidden)
		for i := range b.Model.Hidden {
			b.Model.Hidden[i] = count("hidden layer width")
		}
	}
	b.Model.Params = c.Floats()
	nFeatures := c.Uint()
	if c.Err() == nil && nFeatures > 0 {
		// Each feature needs at least a length-prefixed key and table,
		// so the count cannot exceed the remaining bytes / 16; a
		// damaged count must not size the map allocation.
		if nFeatures > uint64(c.Remaining())/16 {
			return nil, fmt.Errorf("store: canonical bundle: feature count %d exceeds payload", nFeatures)
		}
		b.Features = make(map[string][]float64, nFeatures)
		prev := ""
		for i := uint64(0); i < nFeatures && c.Err() == nil; i++ {
			k := c.String()
			if i > 0 && k <= prev {
				return nil, fmt.Errorf("store: canonical bundle: feature key %q not in ascending order", k)
			}
			b.Features[k], prev = c.Floats(), k
		}
	}
	b.Provenance.Pipeline = c.String()
	b.Provenance.Spent.Epsilon = c.Float()
	b.Provenance.Spent.Delta = c.Float()
	b.Provenance.Blocks = c.BlockIDs()
	b.Provenance.Decision = c.String()
	b.Provenance.Quality = c.Float()
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("store: canonical bundle: %w", err)
	}
	if rangeErr != nil {
		return nil, rangeErr
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("store: canonical bundle: %d trailing bytes", c.Remaining())
	}
	return &b, nil
}

// Digest returns a content digest over the bundle's canonical
// serialization. Replica push uses it for idempotency: a re-push of an
// already-applied (name, version) is accepted iff the digests match, so
// a divergent bundle can never silently overwrite a release. Because
// the WAL journals and the publisher pushes exactly CanonicalBytes, a
// journaled release's digest is the digest replicas verified.
func (b *Bundle) Digest() [sha256.Size]byte {
	return sha256.Sum256(b.CanonicalBytes())
}

// Store is the in-memory wide-access model & feature store. It is safe
// for concurrent use.
type Store struct {
	mu      sync.RWMutex
	bundles map[string][]*Bundle // name → versions (ascending)
	// gen counts mutations. Serving caches key their pre-encoded
	// responses on it: a response computed at generation g is valid
	// until the store changes, at which point g stops matching and the
	// entry is rebuilt on next use.
	gen uint64
	// journal, when set (SetJournal), receives every new release's
	// canonical bytes before the release is applied or acknowledged —
	// the store half of the durable platform core.
	journal func(canonical []byte) error
}

// SetJournal installs the write-ahead journal: every release that
// enters the store (Publish or a first-time Apply) has its canonical
// bytes journaled, under the store lock, before the release is visible
// or acknowledged. Install it *after* replaying recovered releases —
// recovery applies them through the same public methods, and a set
// journal would re-journal them. A journal failure fails the mutation:
// Apply returns the error; Publish, which has no error return, panics —
// a durable store that cannot journal must stop taking releases rather
// than diverge from its log.
//
//sage:nojournal installs the journal itself; runs before any journal exists
func (s *Store) SetJournal(journal func(canonical []byte) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = journal
}

// SnapshotBundles returns every release's canonical bytes, names
// sorted, versions ascending — the record set a WAL compaction replaces
// the store's journal history with.
func (s *Store) SnapshotBundles() [][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.bundles))
	for name := range s.bundles {
		names = append(names, name)
	}
	sort.Strings(names)
	var out [][]byte
	for _, name := range names {
		for _, b := range s.bundles[name] {
			out = append(out, b.CanonicalBytes())
		}
	}
	return out
}

// New returns an empty store.
func New() *Store {
	return &Store{bundles: make(map[string][]*Bundle)}
}

// stored returns the release a store keeps for b: a copy sharing no
// mutable memory with b (the feature map and its value slices, the
// model's parameter slices and the provenance block list are all
// copied), carrying its model, built over those copies. A release whose
// model does not build is an error: it could never be served.
func (b Bundle) stored() (*Bundle, error) {
	c := b
	c.Model.Weights = append([]float64(nil), b.Model.Weights...)
	c.Model.Hidden = append([]int(nil), b.Model.Hidden...)
	c.Model.Params = append([]float64(nil), b.Model.Params...)
	c.Provenance.Blocks = append([]data.BlockID(nil), b.Provenance.Blocks...)
	if b.Features != nil {
		c.Features = make(map[string][]float64, len(b.Features))
		for k, v := range b.Features {
			c.Features[k] = append([]float64(nil), v...)
		}
	}
	m, err := c.Model.build()
	if err != nil {
		return nil, err
	}
	c.model = m
	return &c, nil
}

// Publish adds a bundle under its name and assigns the next version
// (starting at 1). It returns the assigned version. The store keeps a
// deep copy: a published bundle is a *release* — immutable by the threat
// model (§2.2) — so later mutation of the caller's feature map or
// parameter slices must not rewrite what auditors and servers see.
// Every stored release carries the model it serves, built here, once,
// outside the lock; a bundle whose model does not build panics before
// anything is journaled (Serialize's output always builds). With a
// journal installed the release is journaled (canonical bytes, version
// included) before it becomes visible; a journal failure panics, since
// Publish cannot report it and must not acknowledge an unjournaled
// release.
//
//sage:journaled
func (s *Store) Publish(b Bundle) int {
	stored, err := b.stored()
	if err != nil {
		panic(fmt.Errorf("store: publish %s: %w", b.Name, err))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	versions := s.bundles[b.Name]
	stored.Version = len(versions) + 1
	if s.journal != nil {
		if err := s.journal(stored.CanonicalBytes()); err != nil {
			panic(fmt.Errorf("store: journal publish %s@v%d: %w", stored.Name, stored.Version, err))
		}
	}
	s.bundles[b.Name] = append(versions, stored)
	s.gen++
	return stored.Version
}

// Generation returns a counter that advances on every store mutation
// (Publish or Apply). Anything derived from store contents — the
// serving layer's pre-encoded responses — caches against it and
// invalidates on mismatch.
func (s *Store) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// VersionCount returns how many versions of name are published — the
// store's applied-version watermark for the replica push protocol.
func (s *Store) VersionCount(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.bundles[name])
}

// VersionGapError reports an Apply whose bundle version would leave a
// hole in the version sequence. It carries the receiver's current
// watermark so the pusher knows where to resume.
type VersionGapError struct {
	Name      string
	Version   int // the version that was offered
	Watermark int // versions currently applied
}

func (e *VersionGapError) Error() string {
	return fmt.Sprintf("store: bundle %s@v%d leaves a gap: %d version(s) applied", e.Name, e.Version, e.Watermark)
}

// Apply inserts a bundle at its *declared* version — the receiving half
// of the replica push protocol, where versions are assigned by the
// publisher's store and must survive re-delivery. Semantics:
//
//   - Version == watermark+1: the bundle is appended (deep-copied, like
//     Publish) and Apply reports applied=true.
//   - Version <= watermark: idempotent re-push. Apply verifies the
//     offered bundle's digest against the applied one and reports
//     applied=false; a digest mismatch is an error — a release can
//     never be silently replaced.
//   - Version > watermark+1: *VersionGapError. The store refuses holes
//     so that "watermark = n" always means versions 1..n are present.
//
// A version of 0 (a bundle that never went through Publish) is
// rejected, and so is a bundle whose model does not build: every stored
// release carries the model it serves, built before the write lock is
// taken, and a refused bundle leaves the store untouched. Only a bundle
// at the next version is copied and built, and checked again once locked.
//
//sage:journaled
func (s *Store) Apply(b Bundle) (applied bool, err error) {
	if b.Version < 1 {
		return false, fmt.Errorf("store: apply %s: bundle has no version (got %d)", b.Name, b.Version)
	}
	s.mu.RLock()
	next, err := s.isNext(&b)
	s.mu.RUnlock()
	if !next {
		return false, err
	}
	stored, err := b.stored()
	if err != nil {
		return false, fmt.Errorf("store: apply %s@v%d: %w", b.Name, b.Version, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if next, err := s.isNext(&b); !next {
		return false, err
	}
	if s.journal != nil {
		if err := s.journal(stored.CanonicalBytes()); err != nil {
			return false, fmt.Errorf("store: journal apply %s@v%d: %w", stored.Name, stored.Version, err)
		}
	}
	s.bundles[b.Name] = append(s.bundles[b.Name], stored)
	s.gen++
	return true, nil
}

// isNext reports whether b is its name's next version, or else why not:
// nil for a re-push, a digest mismatch, or a *VersionGapError.
func (s *Store) isNext(b *Bundle) (bool, error) {
	versions := s.bundles[b.Name]
	switch {
	case b.Version <= len(versions):
		if versions[b.Version-1].Digest() != b.Digest() {
			return false, fmt.Errorf("store: apply %s@v%d: digest mismatch with already-applied release", b.Name, b.Version)
		}
		return false, nil
	case b.Version > len(versions)+1:
		return false, &VersionGapError{Name: b.Name, Version: b.Version, Watermark: len(versions)}
	}
	return true, nil
}

// Watermarks returns every name's applied version count, sorted by
// name — the replica status a publisher reconciles against.
func (s *Store) Watermarks() map[string]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int, len(s.bundles))
	for name, versions := range s.bundles {
		out[name] = len(versions)
	}
	return out
}

// FeatureKeys returns the bundle's released aggregate table names,
// sorted.
func (b *Bundle) FeatureKeys() []string {
	out := make([]string, 0, len(b.Features))
	for k := range b.Features {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Latest returns the most recent version of the named bundle.
func (s *Store) Latest(name string) (*Bundle, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	versions := s.bundles[name]
	if len(versions) == 0 {
		return nil, false
	}
	return versions[len(versions)-1], true
}

// Get returns a specific version.
func (s *Store) Get(name string, version int) (*Bundle, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	versions := s.bundles[name]
	if version < 1 || version > len(versions) {
		return nil, false
	}
	return versions[version-1], true
}

// List returns all bundle names, sorted.
func (s *Store) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.bundles))
	for name := range s.bundles {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TotalSpent sums the budget recorded across all published bundles of a
// name — an auditor's view of how much privacy a model line has cost.
// Note this is a *per-release* tally; the binding stream-wide guarantee
// lives in core.AccessControl's per-block accounting.
func (s *Store) TotalSpent(name string) privacy.Budget {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := privacy.Zero
	for _, b := range s.bundles[name] {
		total = total.Add(b.Provenance.Spent)
	}
	return total
}
