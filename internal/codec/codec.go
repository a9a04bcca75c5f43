// Package codec assembles the full payload registry: every protocol
// package's wire kinds and decoders in one place, for transports that
// must reconstruct Go payloads from raw bytes. The in-memory simulator
// never decodes (payloads travel as values); the TCP transport
// (internal/transport) decodes every message through this registry.
package codec

import (
	"omicon/internal/benor"
	"omicon/internal/committee"
	"omicon/internal/core"
	"omicon/internal/dolevstrong"
	"omicon/internal/earlystop"
	"omicon/internal/floodset"
	"omicon/internal/multivalue"
	"omicon/internal/paramomissions"
	"omicon/internal/phaseking"
	"omicon/internal/wire"
)

// FullRegistry returns a registry covering every payload type in the
// library.
func FullRegistry() *wire.Registry {
	r := wire.NewRegistry()
	core.RegisterPayloads(r)
	phaseking.RegisterPayloads(r)
	benor.RegisterPayloads(r)
	floodset.RegisterPayloads(r)
	paramomissions.RegisterPayloads(r)
	multivalue.RegisterPayloads(r)
	committee.RegisterPayloads(r)
	earlystop.RegisterPayloads(r)
	dolevstrong.RegisterPayloads(r)
	return r
}
