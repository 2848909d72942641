package engine

import "context"

// ExchangeFrom extracts the exchange a cluster session attached to ctx via
// WithExchange, if any. The catalog's load path uses it before a Job context
// exists: source scans happen at prepare time, so custody-masked loading must
// find the session's exchange on the raw Go context. Scan stages (stage names
// "scanvote/<source>" and "scan/<source>") follow the same Mask/Gather
// contract as join stages: masks are disjoint, their union covers every
// chunk, and a dead member's open chunks come back as extra slots on a
// surviving member, which re-scans its newly adopted ranges.
func ExchangeFrom(ctx context.Context) (Exchange, bool) {
	ex, ok := ctx.Value(exchangeCtxKey{}).(Exchange)
	return ex, ok && ex != nil
}
