package engine

import (
	"fmt"
	"sort"
	"sync"
)

// Config parameterizes a protocol instance built from the registry. Fields a
// protocol does not use are ignored.
// Config is part of the serializable plan vocabulary (ShardSpec embeds it),
// so its fields carry JSON tags.
type Config struct {
	// N is the size of the graphs the instance will run on. Protocols whose
	// construction depends on n (the connectivity sketch sizes its samplers
	// from it) require it; purely local protocols ignore it.
	N int `json:"n,omitempty"`
	// K is the protocol's structural parameter: the degeneracy bound of the
	// reconstruction protocols, the degree bound of bounded-degree, the
	// diameter threshold of the diameter oracle. Zero selects the
	// registration's default; ExecuteShard rejects a negative K.
	K int `json:"k,omitempty"`
	// Seed feeds protocols that use public randomness (the connectivity
	// sketch). Zero is a valid seed.
	Seed int64 `json:"seed,omitempty"`
}

// Registration names one protocol family. New must return a fresh instance
// for every call; instances typically also implement Decider or
// Reconstructor, which callers discover by type assertion.
type Registration struct {
	Name        string
	Description string
	New         func(cfg Config) Local
}

var registry struct {
	sync.Mutex
	byName map[string]Registration
}

// Register adds a protocol to the global registry. It panics on an empty or
// duplicate name — registrations happen in package init functions, where a
// clash is a programming error worth failing loudly on.
func Register(r Registration) {
	if r.Name == "" || r.New == nil {
		panic("engine: Register requires a name and a constructor")
	}
	registry.Lock()
	defer registry.Unlock()
	if registry.byName == nil {
		registry.byName = make(map[string]Registration)
	}
	if _, dup := registry.byName[r.Name]; dup {
		panic(fmt.Sprintf("engine: protocol %q registered twice", r.Name))
	}
	registry.byName[r.Name] = r
}

// Lookup returns the registration for name.
func Lookup(name string) (Registration, bool) {
	registry.Lock()
	defer registry.Unlock()
	r, ok := registry.byName[name]
	return r, ok
}

// New builds a fresh instance of the named protocol.
func New(name string, cfg Config) (Local, bool) {
	r, ok := Lookup(name)
	if !ok {
		return nil, false
	}
	return r.New(cfg), true
}

// Names returns every registered protocol name, sorted. Which names are
// present depends on which packages the binary links in: internal/core,
// internal/sketch and internal/collide each register their protocols from
// package init.
func Names() []string {
	registry.Lock()
	defer registry.Unlock()
	names := make([]string, 0, len(registry.byName))
	for name := range registry.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
