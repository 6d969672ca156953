"""Generated record initializers: one per class, built from its fields."""

import ast
import inspect
import pathlib

import pytest

import wpline
from wpline import sheaves as sh
from wpline import widposet as wp
from wpline._record import Record
from wpline.grading import GradeElement, make_line
from wpline.nilpotent import Arc

from test_record import TWINS


def record_classes():
    """Every subclass of Record in the package, at any depth."""
    seen, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo += cls.__subclasses__()
    return [cls for cls in seen if cls.__module__.startswith("wpline.")]


def record_class_bodies():
    """(module file, class) for each class of src/wpline whose bases
    name Record."""
    root = pathlib.Path(wpline.__file__).parent
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "Record" for b in node.bases):
                yield path.name, node


def test_records_write_no_init():
    """No record class body defines __init__; each one's initializer takes
    self and then its fields, and Record keeps no field-setting helper."""
    bodies = dict((node.name, (module, node)) for module, node in record_class_bodies())
    classes = record_classes()
    assert sorted(bodies) == sorted(cls.__name__ for cls in classes) == sorted(TWINS)
    for name, (module, node) in bodies.items():
        assert not any(isinstance(f, ast.FunctionDef) and f.name == "__init__"
                       for f in node.body), (module, name)
    for cls in classes:
        params = list(inspect.signature(cls.__init__).parameters)
        assert params == ["self", *cls._fields], cls
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert not hasattr(Record, "_init")


LINE = make_line((2,))


@pytest.mark.parametrize("cls, values", [
    (sh.LineBundle, (LINE, LINE.zero())),
    (Arc, (2, 0, 1)),
    (wp.PosetNode, ("{}", 0, None, None)),
])
def test_wrong_construction_raises_pythons_own_type_error(cls, values):
    """A missing field, one too many and a field given twice raise the
    TypeError Python raises for the dataclass twin, under the record's name."""
    twin = TWINS[cls.__name__]
    first = cls._fields[0]
    for args, kwargs in [(values[:-1], {}), (values + (None,), {}),
                         (values, {first: values[0]})]:
        with pytest.raises(TypeError) as want:
            twin(*args, **kwargs)
        with pytest.raises(TypeError) as got:
            cls(*args, **kwargs)
        assert str(got.value) == str(want.value).replace(twin.__name__, cls.__name__, 1)


def test_records_without_a_check_skip_post_init(monkeypatch):
    """Only a class that defines __post_init__ calls it: GradeElement and
    PosetNode construct even when the base would raise."""

    def refuse(self):
        raise AssertionError("called __post_init__")

    monkeypatch.setattr(Record, "__post_init__", refuse, raising=False)
    assert GradeElement(LINE, (1, 0), 2).c_part == 2
    assert wp.PosetNode("{}", 0, None, None).mask == 0
