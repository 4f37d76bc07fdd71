"""The result records keep their public face: ``repr``, equality, and no
assignment to a field."""

import pytest

from infgon import (
    Arc,
    ArcSet,
    Condition,
    Document,
    ExtTriangle,
    IntRegion,
    ModelParams,
    RotationResult,
    Window,
    check_pair,
)
from infgon.arcsets import _Pieces
from infgon.cellwalk import CellBoundary
from infgon.render import RenderResult

P3 = ModelParams(3)
TRIANGLE = ExtTriangle(Arc(0, 4), None, Arc(1, 5), Arc(1, 8))

# each record, and its repr as the frozen dataclasses printed it
RECORDS = [
    (_Pieces(Window(0, 5), 3, ((0, 6, 3),)),
     "_Pieces(w=Window(lo=0, hi=5), n=3, spans=((0, 6, 3),))"),
    (IntRegion.of([1, 7], [-2], [9]), "IntRegion(points=frozenset({1, 7}), left_max=-2, "
     "right_min=9)"),
    (Condition(True, "exact", ()), "Condition(ok=True, mode='exact', witnesses=())"),
    (check_pair(ArcSet.of(P3), ArcSet.of(P3), Window(-3, 3)),
     "PairReport(x_equals_nc_y=Condition(ok=False, mode='windowed', "
     "witnesses=((-3,1), (-2,2), (-1,3))), y_equals_nc_x=Condition(ok=False, mode='windowed', "
     "witnesses=((-3,1), (-2,2), (-1,3))), "
     "x_contravariant=Condition(ok=True, mode='exact', witnesses=()), "
     "y_covariant=Condition(ok=True, mode='exact', witnesses=()), window=Window(lo=-3, hi=3))"),
    (Document(P3, {}), "Document(params=ModelParams(n=3), sets={})"),
    (TRIANGLE, "ExtTriangle(left=(0,4), mid1=None, mid2=(1,5), right=(1,8))"),
    (RotationResult(Arc(0, 4), TRIANGLE),
     "RotationResult(image=(0,4), via_triangle=ExtTriangle(left=(0,4), mid1=None, "
     "mid2=(1,5), right=(1,8)))"),
    (CellBoundary(None, (Arc(0, 4),)), "CellBoundary(ceiling=None, floors=((0,4),))"),
    (RenderResult(b"x\n"), "RenderResult(payload=b'x\\n', warnings=())"),
]


@pytest.mark.parametrize("record,text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_keep_their_repr_and_refuse_assignment(record, text):
    assert repr(record) == text
    assert type(record)(*record) == record
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
