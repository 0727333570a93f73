package interval

// CellEps exposes the rasterizer's outward slack to the external tests,
// which rebuild SharedPartial's boxes cell by cell.
const CellEps = cellEps
