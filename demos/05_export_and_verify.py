# Serialization and certification: exact JSON round-trips, OBJ/STL export,
# and the verification report the CLI prints.

import pathlib
import tempfile

import numpy as np

import ccpforge as cf
from ccpforge.verify import format_report

with tempfile.TemporaryDirectory() as folder:
    tmp = pathlib.Path(folder)
    mesh = cf.gen_q3_18()
    cf.save_json(mesh, tmp / "q3.json")
    again = cf.load_json(tmp / "q3.json")
    print("JSON round-trip bit-identical:",
          (again.vertices == mesh.vertices).all()
          and again.faces == mesh.faces)

    cf.write_obj(mesh, tmp / "q3.obj")
    print("OBJ lines:", (tmp / "q3.obj").read_text().count("\n"))
    cf.write_stl(mesh, tmp / "q3.stl")
    print("STL bytes:", (tmp / "q3.stl").stat().st_size)

print("\n=== verification report ===")
print(format_report(cf.verify(mesh)))

print("\n=== a mesh that is a surface but not constant-defect ===")
v = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1.3, -1.1, 1.2)])
f = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
skew = cf.build_polyhedron(v, f)
print(format_report(cf.verify(skew)))
