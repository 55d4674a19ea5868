"""The immutable records SmithForm, IrrClass, Decomposition and KXModule keep
the constructor, equality, hash and repr of frozen dataclasses, and every
value class refuses to set or delete an attribute."""

import pytest

from looprep import (
    Decomposition,
    IrrClass,
    KXModule,
    LWeight,
    MatrixL,
    SmithForm,
    SymPoly,
    build_kx_module,
    classify,
    lambda_from_h,
    smith_normal_form,
    spectral_character,
    tensor_decompose_k,
)
from looprep.record import Immutable


def value_instances(qi, a1):
    """One instance of every value class of the library."""
    p = LWeight.single(qi, a1, 0, qi.field.gen)
    return [
        qi.field, qi.field.one, MatrixL.identity(qi.field, 2), qi, p,
        spectral_character(p), a1, SymPoly.const(3), lambda_from_h("a", 2),
        smith_normal_form([[2]]), classify(p), tensor_decompose_k(p, p), build_kx_module(p),
    ]


class TestImmutable:
    def test_every_value_class_derives_from_the_base(self, qi, a1):
        classes = {type(v).__name__ for v in value_instances(qi, a1)}
        assert classes == {"NumberField", "FieldElem", "MatrixL", "GaloisContext",
                           "LWeight", "SpectralCharacter", "RootSystem", "SymPoly",
                           "TruncSeries", "SmithForm", "IrrClass", "Decomposition", "KXModule"}
        for value in value_instances(qi, a1):
            assert isinstance(value, Immutable) and not hasattr(value, "__dict__")

    def test_set_and_delete_raise(self, qi, a1):
        for value in value_instances(qi, a1):
            name = type(value).__slots__[0]
            before = getattr(value, name)
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match="is immutable"):
                delattr(value, name)
            with pytest.raises(AttributeError, match="is immutable"):
                value.extra = 1
            assert getattr(value, name) is before


class TestSmithForm:
    def test_fields_equality_hash_repr(self):
        snf = smith_normal_form([[2, -1], [-1, 2]])
        same = SmithForm(snf.diagonal, left=snf.left)
        assert snf == same and hash(snf) == hash(same)
        assert snf != SmithForm(diagonal=(1, 1), left=snf.left)
        assert repr(snf) == "SmithForm(diagonal=%r, left=%r)" % (snf.diagonal, snf.left)
        assert snf != (snf.diagonal, snf.left)

    def test_immutable_and_checked_fields(self):
        snf = smith_normal_form([[2]])
        with pytest.raises(AttributeError):
            snf.diagonal = (1,)
        with pytest.raises(AttributeError):
            snf.extra = 1
        with pytest.raises(TypeError):
            SmithForm((1,))
        with pytest.raises(TypeError):
            SmithForm((1,), (1,), diagonal=(1,))
        with pytest.raises(TypeError):
            SmithForm((1,), (1,), (1,))


class TestClassRecords:
    def test_irr_class_and_decomposition(self, qi, a1):
        i = qi.field.gen
        p, q = LWeight.single(qi, a1, 0, i), LWeight.single(qi, a1, 0, 2 * i)
        cls = classify(p)
        assert cls == classify(p) and hash(cls) == hash(classify(p))
        assert cls != classify(q)
        assert repr(cls).startswith("IrrClass(key=LWeight(")
        assert "dim_k=%d)" % cls.dim_k in repr(cls)
        dec = tensor_decompose_k(p, q)
        assert dec == Decomposition(parts=dec.parts) and hash(dec) == hash(Decomposition(dec.parts))
        assert repr(dec) == "Decomposition(parts=%r)" % (dec.parts,)
        assert {cls: 1}[IrrClass(**{name: getattr(cls, name) for name in IrrClass.__slots__})]


class TestKXModule:
    def test_interpolation_stays_out_of_equality_and_repr(self, qi, a1):
        module = build_kx_module(LWeight.single(qi, a1, 0, qi.field.gen))
        fields = {name: getattr(module, name) for name in KXModule.__slots__}
        other = KXModule(**dict(fields, interpolation=None))
        assert other == module
        assert repr(other) == repr(module)
        assert "interpolation" not in repr(module)
        assert repr(module).startswith("KXModule(lweight=LWeight(")
        assert KXModule(**dict(fields, dim=module.dim + 1)) != module
