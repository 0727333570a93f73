package interval

// CellEps exposes the rasterizer's outward slack to the external tests,
// which recount the cells a boundary crosses at other slacks.
const CellEps = cellEps
