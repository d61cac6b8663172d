"""Exception types raised by the mesh, metrics, surgery and generator layers."""


class CcpError(Exception):
    """Base class for all toolkit errors."""


# ---- files ----

class BadFile(CcpError):
    """An input path is not a readable mesh document: a directory, an STL
    file (export only), text that is not JSON, a document of another
    format_version, without vertices or faces or with a part of the wrong
    shape, or OBJ text whose vertex line lacks three numbers or whose face
    token is not a valid index; or an output path that cannot be
    written."""


class NotRepresentable(CcpError):
    """A mesh does not fit the output format: an STL coordinate beyond the
    float32 range, or an OBJ of a mesh with doubled segments."""


# ---- mesh construction / validation ----

class IndexOutOfRange(CcpError):
    """A face cycle references a vertex index outside the vertex array."""


class NonManifoldEdge(CcpError):
    """An edge is used by a number of face corners different from two."""


class DegenerateFace(CcpError):
    """A face cycle is too short, repeats a vertex, is non-planar beyond
    tolerance, has near-zero area, or is not a simple polygon."""


class FlatEdge(CcpError):
    """Two faces meet at an edge with dihedral angle pi within tolerance."""


class DisconnectedSurface(CcpError):
    """The face-adjacency graph has more than one component."""


class InconsistentTopology(CcpError):
    """Orientable surface reported with an odd Euler characteristic."""


# ---- metrics ----

class VertexNotOnFace(CcpError):
    """corner_angle was asked for a vertex that is not on the face cycle."""


class IsolatedVertex(CcpError):
    """A vertex has fewer than three incident face corners."""


# ---- surgery ----

class NotIsometric(CcpError):
    """The two face cycles of a gluing are not congruent within tolerance."""


class AmbiguousCorrespondence(CcpError):
    """More than one isometric alignment exists; an explicit bijection is
    required."""


class FlatSeam(CcpError):
    """A connected sum produced an edge with dihedral angle pi."""


class NonNegativeChi(CcpError):
    """choose_prism_order needs a surface with negative Euler characteristic."""


class NotInteger(CcpError):
    """The Euler characteristic does not divide the vertex count."""


class BadOrder(CcpError):
    """Prism order below three."""


class AxisObstructed(CcpError):
    """The drilling segment violates the placement conditions on the two
    pierced faces."""


class FootprintTooLarge(CcpError):
    """The prism footprint does not fit inside the pierced face interiors."""


class HoleNotInside(CcpError):
    """The hole polygon is not strictly inside the outer face polygon."""


class SelfCrossingPartition(CcpError):
    """Annulus retiling produced a degenerate or crossing sub-face."""


# ---- generators ----

class BadParameters(CcpError):
    """Free parameters outside the admissible domain of a family."""


class GenusOutOfRange(CcpError):
    """Requested genus outside the range a family supports."""


class BracketFailure(CcpError):
    """A root bracket for the block-parameter solver could not be established."""


class DomainError(CcpError):
    """Argument outside the mathematical domain of a closed-form function."""
